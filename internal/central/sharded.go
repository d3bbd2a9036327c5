package central

import (
	"fmt"

	"scrub/internal/transport"
)

// Executor is the central-execution surface the query server drives. The
// single-node Engine, the ShardedEngine and internal/coord's Coordinator
// satisfy it.
type Executor interface {
	StartQuery(p Plan, emit EmitFunc) error
	HandleBatch(b transport.TupleBatch)
	Tick(nowNanos int64)
	StopQuery(id uint64) (transport.QueryStats, bool)
	Stats(id uint64) (transport.QueryStats, bool)
	ActiveQueries() []uint64
}

var (
	_ Executor = (*Engine)(nil)
	_ Executor = (*ShardedEngine)(nil)
)

// ShardedEngine is a multi-shard ScrubCentral in one process: a Merger
// over N driven Engines reached through LocalShard handles. Every query
// runs on all N shards.
type ShardedEngine struct {
	*Merger
	shards []ShardHandle
}

// NewShardedEngine creates an engine with n shards (n >= 1) and default
// Options.
func NewShardedEngine(n int) (*ShardedEngine, error) {
	return NewShardedEngineWith(n, Options{})
}

// NewShardedEngineWith creates an engine with n shards (n >= 1).
func NewShardedEngineWith(n int, opt Options) (*ShardedEngine, error) {
	if n < 1 {
		return nil, fmt.Errorf("central: shard count must be >= 1, got %d", n)
	}
	se := &ShardedEngine{Merger: NewMerger(opt)}
	// Shards must not register series of their own — whole-batch ingest
	// accounting lives at the merger, and shard-level registration would
	// double-count it under the same names.
	shardOpt := opt
	shardOpt.Metrics = nil
	for i := 0; i < n; i++ {
		se.shards = append(se.shards, LocalShard{Engine: NewEngineWith(shardOpt)})
	}
	return se, nil
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// StartQuery implements Executor.
func (se *ShardedEngine) StartQuery(p Plan, emit EmitFunc) error {
	return se.Start(p, emit, se.shards)
}
