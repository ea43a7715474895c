// Package store persists served graphs across process restarts (DESIGN.md
// §8). It has three layers:
//
//   - A versioned, length-prefixed, CRC-checked binary codec for frozen CSR
//     snapshots (EncodeSnapshot / DecodeSnapshot): the full graph plus the
//     maintenance metadata the serving layer needs to rebuild its maintainer
//     (mode tag and the WAL sequence folded into the snapshot).
//   - A per-graph write-ahead log of edge-update batches (EncodeBatch /
//     DecodeWAL): the serving layer's serialized writer appends every batch
//     before applying it, so an acknowledged update is never lost.
//   - Store, the per-graph directory tying both together: Create writes the
//     initial snapshot and an empty log, AppendBatch makes one batch
//     durable, Checkpoint atomically replaces the snapshot (temp file +
//     rename) and truncates the log, and Open recovers — latest snapshot
//     plus the ordered log tail that must be replayed on top of it.
//
// Both decoders are fuzzed: corrupt or truncated input fails with an error,
// never a panic, and a torn tail on the log (the only partial write a crash
// can produce, since snapshots are swapped in by rename) is detected by its
// CRC and repaired by truncation on Open.
//
// The recovery invariant: after Open, replaying Recovered.Tail through the
// same deterministic batch-application code the live writer uses yields
// exactly the state of a process that never crashed, because every
// acknowledged batch is either folded into the snapshot (Seq ≤ Meta.Seq) or
// present in the tail (Seq > Meta.Seq), in original order.
package store
