package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sofos/internal/client"
)

// children tracks every live sofos-serve child so the signal handler and the
// exit path can kill whatever is still running.
var children = struct {
	sync.Mutex
	live map[*child]struct{}
}{live: map[*child]struct{}{}}

// killAllChildren kills every child still registered. Called on every exit
// path, including SIGINT.
func killAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// buildServer compiles cmd/sofos-serve once into outDir. Build time is
// excluded from every metric.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "sofos-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sofos-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sofos-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one running sofos-serve process.
type child struct {
	cmd    *exec.Cmd
	cl     *client.Client
	logf   *os.File
	exited chan struct{} // closed once Wait returned
	once   sync.Once
}

// startChild spawns sofos-serve with default flags on a free loopback port:
// durable, -wal-sync=always, block codec, heap storage, cache 4096, obs on.
// conns bounds the keep-alive connections the returned client may open.
func startChild(bin, dataDir, logPath string, seed int64, scale, conns int) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-dataset", "dbpedia", "-scale", strconv.Itoa(scale),
		"-seed", strconv.FormatInt(seed, 10), "-data-dir", dataDir, "-addr", addr)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true} // killed as a group
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	c := &child{cmd: cmd, cl: client.New("http://"+addr, hc), logf: logf, exited: make(chan struct{})}
	children.Lock()
	children.live[c] = struct{}{}
	children.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a SIGKILLed child carries nothing
		close(c.exited)
	}()
	return c, nil
}

// waitHealthy polls /healthz until the server answers ok — at generation
// wantGen when wantGen > 0 — and returns the health it saw.
func (c *child) waitHealthy(wantGen int64) error {
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("sofos-serve exited during boot (see %s)", c.logf.Name())
		default:
		}
		h, err := c.cl.Health(context.Background())
		if err == nil && h.OK {
			if wantGen > 0 && h.Generation != wantGen {
				return fmt.Errorf("recovered at generation %d, want %d", h.Generation, wantGen)
			}
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("sofos-serve not healthy after 120s (see %s)", c.logf.Name())
}

// peakRSSMB reads the child's VmHWM (peak resident set) from /proc.
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// kill SIGKILLs the child's process group and waits until it has ended.
func (c *child) kill() {
	c.once.Do(func() {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
		<-c.exited
		c.logf.Close()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
}
