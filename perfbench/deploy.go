package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/server"
	"scrub/internal/transport"
)

const (
	numShards   = 2
	dialTimeout = 3 * time.Second
	// activationTimeout bounds the wait for every host to install a
	// submitted query.
	activationTimeout = 10 * time.Second
)

// deployment is one assembled Scrub deployment: hosts, transport and
// ScrubCentral, built only from the packages' public constructors.
type deployment struct {
	agents []*host.Agent
	// start submits a query, waits until every host has installed it,
	// and delivers each result window to on together with its receipt
	// time. The returned stop cancels the query and returns once its
	// result stream has ended.
	start   func(text string, on func(rw transport.ResultWindow, recv int64)) (stop func(), err error)
	closers []func()
	align   bool
	// aligned is the time set-up spent waiting in alignTo.
	aligned time.Duration
}

// Set-up starts every periodic timer of a deployment at a fixed phase of
// the window grid. Result lag is how long a closed window waits for the
// next event that closes it: each host's next flush (the shipper's
// FlushInterval ticker, 100ms by default) or the query server's next tick
// (TickInterval, 200ms by default), whose force bound closes windows a
// lateness after their end. Both tickers start when their constructor
// runs, so left to chance their phases, and with them result lag, would
// change from run to run. Instead host h starts its shipper at 5ms plus h
// quarter periods past a flush-grid boundary, and the server ticks 50ms
// past a tick-grid boundary.
const (
	flushGrid  = 100 * time.Millisecond // host.Config.FlushInterval default
	tickGrid   = 200 * time.Millisecond // server.Config.TickInterval default
	tickOffset = 50 * time.Millisecond
)

// alignTo sleeps until offset past the next multiple of grid.
func (d *deployment) alignTo(grid, offset time.Duration) {
	if !d.align {
		return
	}
	g := int64(grid)
	now := time.Now().UnixNano()
	at := now - now%g + int64(offset)
	if at <= now {
		at += g
	}
	wait := time.Duration(at - now)
	time.Sleep(wait)
	d.aligned += wait
}

func (d *deployment) alignHost(h int) {
	d.alignTo(flushGrid, 5*time.Millisecond+time.Duration(h)*flushGrid/numHosts)
}

func hostConfig(h int, cat *event.Catalog, sink host.Sink) host.Config {
	return host.Config{HostID: hostName(h), Service: "BidServers", DC: "DC1", Catalog: cat, Sink: sink}
}

// pinBoard counts, per query, the hosts whose control loop has received
// its query object: the agent calls ControlOptions.OnQueryPin just before
// Agent.Start. Waiting on it replaces polling, whose wake-up jitter
// would swamp a sub-millisecond activation.
type pinBoard struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    map[uint64]int
}

func newPinBoard() *pinBoard {
	p := &pinBoard{n: make(map[uint64]int)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pinBoard) pin(id uint64) {
	p.mu.Lock()
	p.n[id]++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// wait blocks until want hosts received query id, or the timeout passes.
func (p *pinBoard) wait(id uint64, want int, timeout time.Duration) error {
	expired := false
	t := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		expired = true
		p.mu.Unlock()
		p.cond.Broadcast()
	})
	defer t.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n[id] < want {
		if expired {
			return fmt.Errorf("timed out after %v", timeout)
		}
		p.cond.Wait()
	}
	return nil
}

// onClose registers a teardown step; close runs them last-first.
func (d *deployment) onClose(f func()) { d.closers = append(d.closers, f) }

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

func hostName(h int) string { return fmt.Sprintf("bid-%d", h) }

func newCatalog() *event.Catalog {
	cat := event.NewCatalog()
	adplatform.RegisterEventTypes(cat)
	return cat
}

// deploy builds a deployment; align starts its timers at fixed phases
// (see alignTo), which only the measured deployment of a run needs.
func deploy(topo topology, cat *event.Catalog, tr *tracer, align bool) (*deployment, error) {
	if tr != nil {
		for h := 0; h < numHosts; h++ {
			tr.hostIdx[hostName(h)] = h
		}
	}
	d := &deployment{align: align}
	var err error
	if topo == topoInproc {
		err = d.buildInproc(cat, tr)
	} else {
		err = d.buildNet(cat, topo == topoFabric, tr)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// buildInproc assembles host-fanout's single-process deployment: the sink
// calls the executor directly and the dispatcher calls Agent.Start/Stop.
func (d *deployment) buildInproc(cat *event.Catalog, tr *tracer) error {
	registry := cluster.NewRegistry()
	exec := tr.wrapExecutor(central.NewEngine())
	byName := make(map[string]*host.Agent, numHosts)
	sink := host.SinkFunc(func(b transport.TupleBatch) error {
		exec.HandleBatch(b)
		return nil
	})
	for h := 0; h < numHosts; h++ {
		id := hostName(h)
		d.alignHost(h)
		a, err := host.New(hostConfig(h, cat, tr.wrapSink(h, sink)))
		if err != nil {
			return err
		}
		d.onClose(a.Close)
		d.agents = append(d.agents, a)
		byName[id] = a
		if err := registry.Register(cluster.HostInfo{Name: id, Service: "BidServers", DC: "DC1"}); err != nil {
			return err
		}
	}
	dispatcher := server.DispatcherFunc(func(name string, msg transport.Message) error {
		a := byName[name]
		if a == nil {
			return fmt.Errorf("perfbench: unknown host %q", name)
		}
		switch m := msg.(type) {
		case transport.HostQuery:
			h := int16(-1)
			if tr != nil {
				h = tr.hostOf(name)
			}
			return tr.timeCall(kStart, h, m.QueryID, func() error { return a.Start(m) })
		case transport.StopQuery:
			a.Stop(m.QueryID)
			return nil
		default:
			return fmt.Errorf("perfbench: unexpected dispatch %s", transport.Name(msg))
		}
	})
	d.alignTo(tickGrid, tickOffset)
	srv, err := server.New(server.Config{Catalog: cat, Registry: registry, Engine: exec, Dispatcher: dispatcher})
	if err != nil {
		return err
	}
	d.onClose(srv.Close)
	d.start = func(text string, on func(transport.ResultWindow, int64)) (func(), error) {
		done := make(chan struct{})
		var info server.QueryInfo
		err := tr.timeCall(kSubmit, -1, 0, func() error {
			var err error
			info, err = srv.Submit(text, server.Callbacks{
				Window: func(rw transport.ResultWindow) { on(rw, time.Now().UnixNano()) },
				Done:   func(transport.QueryDone) { close(done) },
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		return func() {
			if srv.Cancel(info.ID) == nil {
				<-done
			}
		}, nil
	}
	return nil
}

// buildNet assembles engine-mix's and fabric-mix's loopback deployment:
// the TCP hub and query server in front of an Engine, or of a
// coordinator with numShards shard nodes; hosts register over the
// control port and ship through NetSink or coord.Router.
func (d *deployment) buildNet(cat *event.Catalog, fabric bool, tr *tracer) error {
	registry := cluster.NewRegistry()
	hub, err := server.NewHub(registry, "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hub.SetLogf(func(string, ...any) {})
	d.onClose(hub.Close)

	var exec central.Executor
	var shardAddrs []string
	if fabric {
		co := coord.NewCoordinator(coord.Options{})
		d.onClose(co.Close)
		var serving sync.WaitGroup
		d.onClose(serving.Wait)
		for i := 0; i < numShards; i++ {
			node := coord.NewShardNode(cat)
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			d.onClose(func() { l.Close() })
			serving.Add(1)
			go func() {
				defer serving.Done()
				node.Serve(l)
			}()
			conn, err := transport.DialWith(l.Addr(), dialTimeout, tr.shardWrap(false, i))
			if err != nil {
				return err
			}
			co.AddShardConn(conn, l.Addr())
			shardAddrs = append(shardAddrs, l.Addr())
		}
		exec = co
	} else {
		exec = central.NewEngine()
	}
	exec = tr.wrapExecutor(exec)
	d.alignTo(tickGrid, tickOffset)
	srv, err := server.New(server.Config{Catalog: cat, Registry: registry, Engine: exec, Dispatcher: hub})
	if err != nil {
		return err
	}
	d.onClose(srv.Close)
	hub.SetServer(srv)
	hub.Serve()

	pins := newPinBoard()
	ctx, cancel := context.WithCancel(context.Background())
	var control sync.WaitGroup
	d.onClose(func() {
		cancel()
		control.Wait()
	})
	for h := 0; h < numHosts; h++ {
		id := hostName(h)
		var sink host.Sink
		var opts host.ControlOptions
		if fabric {
			mconn, err := transport.Dial(hub.DataAddr(), dialTimeout)
			if err != nil {
				return err
			}
			d.onClose(func() { mconn.Close() })
			if err := mconn.Send(transport.DataHello{HostID: id}); err != nil {
				return err
			}
			router := coord.NewRouter(tr.wrapManifest(h, coord.NewManifestClient(mconn)), nil)
			d.onClose(router.Close)
			for i, addr := range shardAddrs {
				conn, err := transport.DialWith(addr, dialTimeout, tr.shardWrap(true, i))
				if err != nil {
					return err
				}
				router.AddShardConn(addr, conn)
			}
			sink = router
			opts = host.ControlOptions{OnShardMap: router.HandleShardMap, OnQueryUnpin: router.UnpinQuery,
				OnQueryPin: func(id uint64, epoch uint32) {
					router.PinQuery(id, epoch)
					pins.pin(id)
				}}
		} else {
			ns := host.NewNetSink(hub.DataAddr(), id)
			d.onClose(ns.Close)
			sink = ns
			opts = host.ControlOptions{OnQueryPin: func(id uint64, _ uint32) { pins.pin(id) }}
		}
		d.alignHost(h)
		a, err := host.New(hostConfig(h, cat, tr.wrapSink(h, sink)))
		if err != nil {
			return err
		}
		d.onClose(a.Close)
		d.agents = append(d.agents, a)
		control.Add(1)
		go func() {
			defer control.Done()
			_ = a.RunControlWith(ctx, hub.ControlAddr(), opts)
		}()
	}
	if err := waitFor(activationTimeout, func() bool { return registry.Len() == numHosts }); err != nil {
		return fmt.Errorf("perfbench: hosts did not register: %w", err)
	}

	d.start = func(text string, on func(transport.ResultWindow, int64)) (func(), error) {
		c, err := server.DialClient(hub.ClientAddr())
		if err != nil {
			return nil, err
		}
		var qs *server.QueryStream
		err = tr.timeCall(kSubmit, -1, 0, func() error {
			var err error
			qs, err = c.Query(text)
			return err
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		id := qs.Info.QueryID
		done := make(chan struct{})
		go func() {
			defer close(done)
			for rw := range qs.Windows {
				on(rw, time.Now().UnixNano())
			}
		}()
		stop := func() {
			_ = qs.Cancel()
			<-done
			_, _ = qs.Final()
			c.Close()
		}
		err = pins.wait(id, numHosts, activationTimeout)
		if err == nil {
			err = spinFor(activationTimeout, func() bool { return d.activeEverywhere(id) })
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("perfbench: query %d not installed on every host: %w", id, err)
		}
		return stop, nil
	}
	return nil
}

func (d *deployment) activeEverywhere(id uint64) bool {
	for _, a := range d.agents {
		found := false
		for _, q := range a.ActiveQueries() {
			if q == id {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	return poll(timeout, cond, func() { time.Sleep(100 * time.Microsecond) })
}

// spinFor is waitFor for a condition another running goroutine is about
// to make true: it yields instead of sleeping, so the wait is not
// rounded up to a timer wake-up.
func spinFor(timeout time.Duration, cond func() bool) error {
	return poll(timeout, cond, runtime.Gosched)
}

func poll(timeout time.Duration, cond func() bool, idle func()) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		idle()
	}
	return nil
}
