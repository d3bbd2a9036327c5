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
// runs on all N shards. With one shard it is the same machine as Engine.
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
	// Shards count only what they hold, join-pending tuples, into the
	// merger's gauge; per-batch and per-window accounting lives at the
	// merger, the only component that sees whole batches.
	for i := 0; i < n; i++ {
		se.shards = append(se.shards, LocalShard{Engine: newDrivenEngine(opt.Metrics)})
	}
	return se, nil
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// StartQuery implements Executor.
func (se *ShardedEngine) StartQuery(p Plan, emit EmitFunc) error {
	return se.Start(p, emit, se.shards)
}
