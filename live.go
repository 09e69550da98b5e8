package evolving

// The live ingestion surface: the durable write path that turns a
// read-only QueryServer into a live one (internal/ingest, DESIGN.md
// §11). Batches of IngestEvent flow through an optional write-ahead
// log into a pending delta; a background epoch compactor folds the
// delta into a fresh immutable Graph and publishes it through the
// server's ReplaceGraph, invalidating the versioned result cache.
//
//	srv := evolving.NewQueryServer(g, evolving.ServerConfig{})
//	wal, rec, _ := evolving.OpenWAL("events.wal", evolving.WALOptions{})
//	if len(rec.Events) > 0 {
//		srv.ReplaceGraph(evolving.FoldEvents(srv.Graph(), rec.Events))
//	}
//	log, _ := evolving.NewIngestLog(srv, evolving.IngestConfig{WAL: wal})
//	defer log.Close()
//	srv.AttachIngest(log)
//
// cmd/egserve wires exactly this (flag -wal); examples/ingestion is a
// self-contained walkthrough including a simulated crash.

import (
	"repro/internal/egio"
	"repro/internal/ingest"
)

// IngestEvent is one mutation of a live evolving graph: an arc
// insertion/removal at a time label, or the registration of a new
// label.
type IngestEvent = ingest.Event

// IngestEventOp enumerates the mutation kinds.
type IngestEventOp = ingest.EventOp

// Mutation kinds accepted by an IngestLog.
const (
	IngestAddArc    = ingest.AddArc
	IngestRemoveArc = ingest.RemoveArc
	IngestAddStamp  = ingest.AddStamp
)

// IngestLog is the mutation API of the live query service; construct
// with NewIngestLog.
type IngestLog = ingest.Log

// IngestConfig tunes an IngestLog (WAL, epoch thresholds,
// backpressure bound).
type IngestConfig = ingest.Config

// IngestStats is the write-path counter snapshot (/ingest/stats).
type IngestStats = ingest.Stats

// IngestPublisher is the seam the compactor publishes through;
// QueryServer implements it.
type IngestPublisher = ingest.Publisher

// WAL is the write-ahead log backing durable ingestion.
type WAL = ingest.WAL

// WALOptions tunes WAL durability (fsync policy and interval).
type WALOptions = ingest.WALOptions

// WALRecovery reports what OpenWAL found in an existing log.
type WALRecovery = ingest.Recovery

// WAL fsync policies.
const (
	WALSyncInterval = ingest.SyncInterval
	WALSyncAlways   = ingest.SyncAlways
	WALSyncNever    = ingest.SyncNever
)

// ErrIngestBackpressure is returned by IngestLog.Append when the
// compactor lags the write rate.
var ErrIngestBackpressure = ingest.ErrBackpressure

// NewIngestLog builds the write path over a publisher (normally a
// QueryServer) and starts its epoch compactor.
func NewIngestLog(pub IngestPublisher, cfg IngestConfig) (*IngestLog, error) {
	return ingest.New(pub, cfg)
}

// OpenWAL opens (creating if absent) a write-ahead log, replaying any
// existing records and truncating a torn tail at the last complete
// record.
func OpenWAL(path string, opts WALOptions) (*WAL, *WALRecovery, error) {
	return ingest.OpenWAL(path, opts)
}

// FoldEvents applies an event stream to a base graph and builds the
// resulting immutable graph from scratch — the full rebuild fold,
// exposed for recovery and offline compaction, and the oracle the
// incremental PatchEvents path is tested against.
func FoldEvents(base *Graph, events []IngestEvent) *Graph {
	return ingest.Fold(base, events)
}

// PatchEvents applies an event stream to a base graph by copy-on-write:
// only stamps the delta touches are rebuilt, everything else is shared
// with base by reference (DESIGN.md §12). Semantically equivalent to
// FoldEvents at delta-proportional cost; the live epoch compactor uses
// this path by default.
func PatchEvents(base *Graph, events []IngestEvent) *Graph {
	return ingest.Patch(base, events)
}

// A QueryServer is a valid publisher: Graph/ReplaceGraph/AttachIngest
// form the read-write seam the compactor swaps snapshots through.
var _ IngestPublisher = (*QueryServer)(nil)

// CheckpointMeta carries the WAL coverage sequence and extra time
// labels a checkpoint persists alongside the graph (internal/egio,
// DESIGN.md §14).
type CheckpointMeta = egio.CheckpointMeta

// CheckpointInfo describes a parsed checkpoint: coverage, labels,
// shape and on-disk size.
type CheckpointInfo = egio.CheckpointInfo

// Checkpoint is an open, validated, mmap-backed checkpoint; Close
// unmaps it (after which the graph must not be used).
type Checkpoint = egio.Checkpoint

// WriteCheckpoint persists g — snapshots, activity index and flat CSR
// view — as a page-aligned, CRC-guarded, mmap-able file, atomically
// (temp + rename). The returned size is the final file's bytes.
func WriteCheckpoint(path string, g *Graph, meta CheckpointMeta) (int64, error) {
	return egio.WriteCheckpoint(path, g, meta)
}

// OpenCheckpoint maps path read-only and validates it end to end
// (CRCs, then full structural validation), returning a zero-copy
// graph over the mapping. Any damage — truncation, bit rot, a torn
// rename — fails cleanly; recovery then falls back to WAL replay.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	return egio.OpenCheckpoint(path)
}

// RecoverConfig and RecoverResult configure and report a
// checkpoint-aware recover-then-serve boot; see Recover.
type RecoverConfig = ingest.RecoverConfig

// RecoverResult reports how Recover brought the graph up.
type RecoverResult = ingest.RecoverResult

// Recover opens a WAL and boots the newest recoverable graph: mmap'd
// checkpoint + tail fold when the checkpoint validates and its
// coverage is confirmed, base + full replay otherwise. Both paths are
// bit-identical; cmd/egserve boots through this with -wal.
func Recover(cfg RecoverConfig) (*RecoverResult, error) {
	return ingest.Recover(cfg)
}
