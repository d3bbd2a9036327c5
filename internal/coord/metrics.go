package coord

import (
	"sync"

	"scrub/internal/obs"
)

// coordMetrics bundles the coordinator's registered series; a nil
// *coordMetrics (no registry configured) costs one pointer check per
// operation, exactly like centralMetrics in internal/central.
type coordMetrics struct {
	reg *obs.Registry

	shards     *obs.Gauge   // current shard membership size
	epoch      *obs.Gauge   // current shard-map epoch
	manifests  *obs.Counter // batch manifests processed
	tuples     *obs.Counter // raw tuples the manifests accounted for
	merges     *obs.Counter // window-partial merge folds performed
	rebalances *obs.Counter // membership changes (joins, leaves, deaths)

	mu    sync.Mutex
	lagOf map[string]*obs.Gauge // per-shard last-contact lag, by address
}

// newCoordMetrics registers the coordinator's series. merges is the
// merger's own fold counter, exported under the coordinator's name.
func newCoordMetrics(reg *obs.Registry, merges *obs.Counter) *coordMetrics {
	if reg == nil {
		return nil
	}
	reg.RegisterCounter("scrub_coord_merges_total", "window partial merges folded", merges)
	return &coordMetrics{
		reg:        reg,
		shards:     reg.Gauge("scrub_coord_shards", "current shard membership size"),
		epoch:      reg.Gauge("scrub_coord_epoch", "current shard-map epoch"),
		manifests:  reg.Counter("scrub_coord_manifests_total", "batch manifests processed"),
		tuples:     reg.Counter("scrub_coord_manifest_tuples_total", "raw tuples accounted for by manifests"),
		merges:     merges,
		rebalances: reg.Counter("scrub_coord_rebalances_total", "shard membership changes"),
		lagOf:      make(map[string]*obs.Gauge),
	}
}

// setMembership updates the shard-count and epoch gauges.
func (m *coordMetrics) setMembership(shards int, epoch uint32) {
	if m == nil {
		return
	}
	m.shards.Set(int64(shards))
	m.epoch.Set(int64(epoch))
}

// shardLag returns (creating on first use) the lag gauge for one shard.
func (m *coordMetrics) shardLag(addr string) *obs.Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.lagOf[addr]
	if !ok {
		g = m.reg.Gauge("scrub_coord_shard_lag_ns", "nanoseconds since the shard's last successful RPC", obs.L("shard", addr))
		m.lagOf[addr] = g
	}
	return g
}

// dropShard unregisters a departed shard's labeled series.
func (m *coordMetrics) dropShard(addr string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.lagOf[addr]; ok {
		delete(m.lagOf, addr)
		m.reg.Unregister("scrub_coord_shard_lag_ns", obs.L("shard", addr))
	}
}
