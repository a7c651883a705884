// Package ingest implements the sharded concurrent ingestion pipeline:
// the production seam between a raw NTP query stream and the passive
// observation store. Events fan out to N collector shards by address
// hash — per-address updates commute, so same-address sightings always
// land on the same shard and every shard runs lock-free on private
// state. Batched channels amortize synchronization, an admission policy
// provides backpressure (block) or load-shedding (drop), pluggable
// enrichment stages run inline on each shard, and shard snapshots merge
// into a single-writer collector.Store that readers can query live.
//
// The paper's deployment is 27 vantage servers each feeding one stream;
// this pipeline is what one high-volume vantage (or a central
// aggregator receiving all 27) runs to keep up with line rate.
package ingest

import (
	"fmt"
	"runtime"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/telemetry"
)

// Config parameterizes a Pipeline.
type Config struct {
	// Shards is the number of collector shards (and worker goroutines).
	// 0 selects GOMAXPROCS capped at 8. Same-address events always hash
	// to the same shard, so results are independent of the shard count.
	Shards int
	// BatchSize is how many events a Batcher accumulates per shard
	// before handing the batch to the shard's queue. Larger batches
	// amortize channel synchronization; smaller ones reduce latency.
	// 0 selects 256.
	BatchSize int
	// QueueDepth is the per-shard queue capacity in batches. 0 selects 8.
	QueueDepth int
	// DropOnFull selects the admission policy when a shard queue is
	// full: false (default) blocks the producer — backpressure — while
	// true sheds the batch and counts it in Metrics.Dropped, which is
	// what a live UDP collector wants instead of kernel buffer bloat.
	DropOnFull bool
	// SnapshotInterval is how often shard snapshots are merged into the
	// live Store view. 0 disables periodic snapshots: the store is then
	// only populated by SnapshotNow and Close. Replay-style batch runs
	// want 0; serving daemons want something like a few seconds.
	SnapshotInterval time.Duration
	// ServerCap is the highest vantage-server count the deployment
	// attributes distinctly; events with Server >= ServerCap saturate
	// onto index ServerCap-1. It cannot exceed collector.MaxServers
	// (the AddrRecord.Servers bitmask width). 0 selects the maximum.
	ServerCap int
	// Stages are enrichment-stage factories; each shard gets a private
	// instance of every stage, and snapshots merge them into the
	// pipeline-level results readable via StageView.
	Stages []StageFactory
	// Seed, when non-nil, is a corpus the pipeline starts from — the
	// restore half of checkpointing, typically RestoreChainFiles's
	// result. The pipeline takes ownership (the store absorbs it before
	// any event flows), so the merged corpus is the seed plus everything
	// ingested, exactly as if the seed's observations had streamed first.
	Seed *collector.Collector
	// CheckpointPath, when non-empty, is where the pipeline writes its
	// durable corpus checkpoints every CheckpointInterval: a full base at
	// the path and a delta chain beside it (see CheckpointChain).
	// Restore-on-start is the caller's half: load the chain with
	// RestoreChainFiles and pass the corpus as Seed.
	CheckpointPath string
	// CheckpointInterval is how often the pipeline checkpoints to
	// CheckpointPath. 0 with a non-empty path means on-demand only
	// (CheckpointChain).
	CheckpointInterval time.Duration
	// Registry, when non-nil, is the telemetry registry the pipeline
	// registers its metric families in — per-shard queue gauges, batch
	// latency and size histograms, per-stage timings, checkpoint
	// duration/bytes — so a daemon's /metrics endpoint exposes them.
	// nil selects a private registry: the pipeline is always fully
	// instrumented (Metrics() reads the same counters either way), the
	// registry just isn't shared with anyone.
	Registry *telemetry.Registry
	// noHotPathTelemetry disables the per-batch timing instrumentation
	// (time reads + histogram observations) while keeping the counter
	// block. This is not a production switch — it exists so
	// BenchmarkTelemetryOverhead can measure the uninstrumented observe
	// loop as its baseline and prove the instrumented path stays within
	// budget.
	noHotPathTelemetry bool
}

// DefaultConfig returns a replay-tuned configuration (blocking
// admission, snapshot only on Close) with n shards (0 = auto).
func DefaultConfig(n int) Config {
	return Config{Shards: n}
}

func (c *Config) fillDefaults() error {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("ingest: Shards %d negative", c.Shards)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("ingest: BatchSize %d negative", c.BatchSize)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("ingest: QueueDepth %d negative", c.QueueDepth)
	}
	if c.ServerCap == 0 {
		c.ServerCap = collector.MaxServers
	}
	if c.ServerCap < 1 || c.ServerCap > collector.MaxServers {
		return fmt.Errorf("ingest: ServerCap %d out of [1,%d]",
			c.ServerCap, collector.MaxServers)
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("ingest: CheckpointInterval %v negative", c.CheckpointInterval)
	}
	if c.CheckpointInterval > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("ingest: CheckpointInterval without CheckpointPath")
	}
	return nil
}
