// Package persist is the durability subsystem of the serving layer: a
// write-ahead log of committed update batches plus checkpointed snapshots of
// the base graph and catalog state, so a killed sofos-serve process restarts
// from its data directory with snapshot-load + WAL-suffix replay instead of
// rebuilding the graph from generators and rematerializing every view.
//
// Three pieces cooperate:
//
//   - Log (wal.go): sequence-numbered segment files of length-prefixed,
//     CRC32-guarded records. Every acknowledged /update batch is appended —
//     its effective delta, version interval, post-ack generation, and
//     maintenance mode — before the client sees the 200. The fsync policy
//     (-wal-sync=always|interval|none) trades ack latency against the
//     machine-crash window; a process kill (SIGKILL) never loses an
//     acknowledged batch under any policy.
//
//   - Dir checkpoints (checkpoint.go): store.Save graph snapshots paired
//     with views.Catalog.SaveState catalog state under a JSON manifest,
//     published atomically via rename + CURRENT. A checkpoint rotates the
//     WAL and truncates segments it made redundant, bounding both recovery
//     time and disk use.
//
//   - Reading (WALCursor in stream.go + core.Restore): one cursor reads the
//     log for recovery, the no-checkpoint boot probe and replication, under
//     one end-of-log rule — damage ends the log when no later segment holds
//     a record, and is corruption otherwise. Recovery loads the newest
//     checkpoint, restores the graph's version counter and the catalog's
//     generation, then drains a cursor opened at the checkpoint's segment
//     and version through the catalog's incremental O(|ΔG|) maintenance
//     path. A torn final record — the signature of a crash mid-append — is
//     dropped cleanly: it was never acknowledged.
//
// The same on-disk format serves offline tooling: `sofos snapshot` dumps and
// restores data directories the server can boot from.
package persist
