package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// WAL reading: WALCursor is the one reader of the segment format. Recovery
// drains it once over a quiescent log, the no-checkpoint boot probe asks it
// whether any record exists, and replication follows a live log with it —
// appends, segment rotations, and checkpoint truncations included.
//
// Every reader applies one end-of-log rule. A segment is valid up to its
// last whole, CRC-valid record; anything after that is damage — a short or
// wrong header, a cut record, or a checksum mismatch. Damage is the end of
// the log when no later segment holds a record: at the live tail it is an
// append in flight (the cursor waits and re-reads it once more bytes land),
// after a crash it is a batch that was never acknowledged. Damage followed
// by a record is corruption and an error, because acknowledged batches
// follow it.
//
// Correctness is anchored on the version chain, not on segment bookkeeping:
// every delivered record must begin exactly at the version the previous one
// ended at (seeded by the caller's resume version). A record that does not
// chain means the segments between were truncated by a checkpoint — the
// follower is too far behind the log and must re-bootstrap from a snapshot.

// Encode renders the record's durable payload — the bytes a WAL segment
// stores and CRC-guards. The replication stream ships these verbatim so a
// replica applies bit-identical batches; invert with DecodeRecord.
func (r *Record) Encode() []byte { return r.encode() }

// DecodeRecord inverts Record.Encode.
func DecodeRecord(payload []byte) (*Record, error) { return decodeRecord(payload) }

// ErrWALNoMore reports that the cursor has delivered every complete record
// currently on disk; poll again after the writer appends more.
var ErrWALNoMore = errors.New("persist: no further wal records yet")

// ErrWALGap reports that the log cannot resume from the requested version:
// the records spanning it were truncated by a checkpoint (or the version
// never existed). The follower must re-bootstrap from a checkpoint.
var ErrWALGap = errors.New("persist: wal cannot resume from the requested version")

// errDamage marks bytes that end a segment's valid prefix: a short or wrong
// header, a cut record, or a checksum mismatch.
var errDamage = errors.New("damaged wal bytes")

// WALCursor reads records with ToVersion beyond a resume point out of a log
// directory, in order. Not safe for concurrent use.
type WALCursor struct {
	dir     string
	version int64  // version the last delivered record ended at
	next    uint64 // lowest segment the cursor may open next

	seq   uint64 // segment open under f
	f     *os.File
	br    *bufio.Reader
	off   int64 // file offset past the last whole record (0 = header unread)
	final bool  // a later segment exists, so this one's bytes are complete

	skipped int  // records at or below the resume version, passed over
	torn    bool // the last ErrWALNoMore stopped at damage
}

// OpenWALCursor positions a cursor at segment fromSeq so that the next
// delivered record is the first one moving the graph past fromVersion.
// Older segments are never read. The resume point is validated lazily — on
// the first delivered record — because an empty or quiescent log cannot
// distinguish "in sync" from "truncated past you"; callers that can compare
// fromVersion against a checkpoint manifest should pre-check and refuse
// earlier (see the server's /v1/wal handler).
func OpenWALCursor(dir string, fromSeq uint64, fromVersion int64) *WALCursor {
	return &WALCursor{dir: dir, next: fromSeq, version: fromVersion}
}

// Version returns the version the cursor's last delivered record ended at
// (the resume point before any delivery).
func (c *WALCursor) Version() int64 { return c.version }

// Skipped counts the records passed over because they end at or below the
// resume version — already inside the caller's checkpoint.
func (c *WALCursor) Skipped() int { return c.skipped }

// Torn reports whether the last ErrWALNoMore stopped at damage rather than
// at a clean record boundary. After a crash that is a torn final record,
// which was never acknowledged; on a live log, an append in flight.
func (c *WALCursor) Torn() bool { return c.torn }

// Close releases the cursor's open segment handle.
func (c *WALCursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f, c.br = nil, nil
	return err
}

// Next returns the next record past the cursor's version and the segment it
// was read from, ErrWALNoMore when the log has no whole further record yet,
// or ErrWALGap when the version chain cannot be continued. Any other error is
// real I/O trouble or corruption.
func (c *WALCursor) Next() (*Record, uint64, error) {
	for {
		if c.f == nil {
			seq, ok, err := c.segmentFrom(c.next)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				c.torn = false
				return nil, 0, ErrWALNoMore
			}
			if err := c.open(seq); err != nil {
				return nil, 0, err
			}
		}
		rec, err := c.read()
		if err == nil {
			if rec.ToVersion <= c.version {
				c.skipped++
				continue
			}
			if rec.FromVersion != c.version {
				return nil, 0, fmt.Errorf("%w: record spans %d→%d but the cursor is at %d",
					ErrWALGap, rec.FromVersion, rec.ToVersion, c.version)
			}
			c.version, c.torn = rec.ToVersion, false
			return rec, c.seq, nil
		}
		if err != io.EOF && !errors.Is(err, errDamage) {
			return nil, 0, err
		}
		// The segment's valid bytes stop here; re-read from the last whole
		// record next time.
		if _, serr := c.f.Seek(c.off, io.SeekStart); serr != nil {
			return nil, 0, fmt.Errorf("persist: rewinding wal segment %d: %w", c.seq, serr)
		}
		c.br.Reset(c.f)
		if !c.final {
			_, later, lerr := c.segmentFrom(c.seq + 1)
			if lerr != nil {
				return nil, 0, lerr
			}
			if !later {
				c.torn = err != io.EOF
				return nil, 0, ErrWALNoMore
			}
			// The writer flushes a segment before it creates the next, so
			// this one is now complete: read it once more to pick up bytes
			// that landed before the rotation.
			c.final = true
			continue
		}
		if err == io.EOF {
			c.Close()
			continue
		}
		held, herr := c.laterRecord()
		if herr != nil {
			return nil, 0, herr
		}
		if held {
			return nil, 0, fmt.Errorf("persist: wal segment %d is corrupt mid-log (%v) but later segments hold acknowledged batches", c.seq, err)
		}
		c.torn = true
		return nil, 0, ErrWALNoMore
	}
}

// segmentFrom returns the smallest on-disk segment numbered seq or later.
func (c *WALCursor) segmentFrom(seq uint64) (uint64, bool, error) {
	seqs, err := listSegments(c.dir)
	if err != nil {
		return 0, false, err
	}
	for _, s := range seqs {
		if s >= seq {
			return s, true, nil
		}
	}
	return 0, false, nil
}

// open makes segment seq the cursor's current one, positioned before its
// header.
func (c *WALCursor) open(seq uint64) error {
	f, err := os.Open(filepath.Join(c.dir, segmentName(seq)))
	if err != nil {
		return fmt.Errorf("persist: opening wal segment %d: %w", seq, err)
	}
	c.f, c.br = f, bufio.NewReaderSize(f, 1<<16)
	c.seq, c.next, c.off, c.final = seq, seq+1, 0, false
	return nil
}

// read returns the open segment's next whole record (checking the header
// first when none has been read), io.EOF at a clean end, an errDamage error
// at damage, or a format error.
func (c *WALCursor) read() (*Record, error) {
	if c.off == 0 {
		n, err := readHeader(c.br, c.seq)
		if err != nil {
			return nil, err
		}
		c.off = n
	}
	rec, n, err := readRecord(c.br)
	if err != nil {
		if err != io.EOF && !errors.Is(err, errDamage) {
			err = fmt.Errorf("persist: wal segment %d: %w", c.seq, err)
		}
		return nil, err
	}
	c.off += n
	return rec, nil
}

// laterRecord reports whether any segment after the current one holds a
// record: the test that separates a torn tail from mid-log corruption. A
// CRC-valid frame counts even if its payload does not decode — a writer put
// it there after the damage.
func (c *WALCursor) laterRecord() (bool, error) {
	seqs, err := listSegments(c.dir)
	if err != nil {
		return false, err
	}
	for _, seq := range seqs {
		if seq <= c.seq {
			continue
		}
		f, err := os.Open(filepath.Join(c.dir, segmentName(seq)))
		if err != nil {
			return false, fmt.Errorf("persist: opening wal segment %d: %w", seq, err)
		}
		br := bufio.NewReader(f)
		_, err = readHeader(br, seq)
		if err == nil {
			_, _, err = readRecord(br)
		}
		f.Close()
		if err != io.EOF && !errors.Is(err, errDamage) {
			return true, nil
		}
	}
	return false, nil
}

// readHeader checks a segment header — the magic and the segment's own
// sequence number — and returns its length. Any mismatch is damage.
func readHeader(br *bufio.Reader, seq uint64) (int64, error) {
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("%w: segment header: %v", errDamage, err)
	}
	if string(magic) != walMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", errDamage, magic)
	}
	headerSeq, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: segment header seq: %v", errDamage, err)
	}
	if headerSeq != seq {
		return 0, fmt.Errorf("%w: segment header seq %d does not match filename seq %d", errDamage, headerSeq, seq)
	}
	var buf [binary.MaxVarintLen64]byte
	return int64(len(walMagic) + binary.PutUvarint(buf[:], seq)), nil
}

// readRecord decodes one record frame — length, CRC, payload — returning the
// record and its on-disk length, io.EOF at a clean end exactly at a record
// boundary, an errDamage error when the frame is cut or fails its checksum,
// or a format error when a CRC-valid payload does not decode.
func readRecord(br *bufio.Reader) (*Record, int64, error) {
	n, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: record length: %v", errDamage, err)
	}
	if n > maxRecordBytes {
		return nil, 0, fmt.Errorf("%w: record length %d exceeds limit", errDamage, n)
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: record checksum: %v", errDamage, err)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: record payload: %v", errDamage, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crc[:]) {
		return nil, 0, fmt.Errorf("%w: record checksum mismatch", errDamage)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, 0, err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	return rec, int64(binary.PutUvarint(lenBuf[:], n) + 4 + int(n)), nil
}
