package core

import (
	"context"
	"fmt"
	"net"
	"time"

	"scrub/internal/central"
	"scrub/internal/cluster"
	"scrub/internal/event"
	"scrub/internal/host"
	"scrub/internal/server"
	"scrub/internal/transport"
)

// NetConfig parametrizes a NetCluster.
type NetConfig struct {
	Catalog *event.Catalog
	Hosts   []HostSpec
	// Listener addresses; empty means ephemeral loopback ports.
	ClientAddr  string
	ControlAddr string
	DataAddr    string
	// Agent defaults forwarded to every agent.
	Agent host.Config
	// Logf for hub diagnostics; nil silences them.
	Logf func(string, ...any)
	// CentralShards: see LocalConfig.CentralShards.
	CentralShards int
	// Central: see LocalConfig.Central.
	Central central.Options
	// Sink is the base option set for every host's data sink (dial
	// timeout, spill limit). Per-host wrapping and drop accounting are
	// filled in by the assembly.
	Sink host.NetSinkOptions
	// Control is the base option set for every agent's control loop
	// (dial timeout, reconnect backoff). The jitter seed is derived per
	// host; the dialer is wrapped per host when WrapConn is set.
	Control host.ControlOptions
	// WrapConn, when non-nil, interposes on every outbound connection a
	// host makes (control and data), keyed by host name — the
	// fault-injection seam. Wire it to chaos.Injector.Wrap.
	WrapConn func(hostName string, nc net.Conn) net.Conn
}

// NetCluster is a full Scrub deployment over real TCP in one process:
// the hub (client/control/data listeners), the query server with
// ScrubCentral, and one agent per host, each with its own control and
// data connections. It exercises exactly the paths a multi-machine
// deployment uses; cmd/scrubcentral and cmd/scrubd split the same pieces
// across processes.
type NetCluster struct {
	Catalog  *event.Catalog
	Registry *cluster.Registry
	Engine   central.Executor
	Server   *server.Server
	Hub      *server.Hub

	agents []*host.Agent
	sinks  []*host.NetSink
	cancel context.CancelFunc
}

// NewNetCluster builds, connects, and waits for every agent to register.
func NewNetCluster(cfg NetConfig) (*NetCluster, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("core: nil catalog")
	}
	if cfg.ClientAddr == "" {
		cfg.ClientAddr = "127.0.0.1:0"
	}
	if cfg.ControlAddr == "" {
		cfg.ControlAddr = "127.0.0.1:0"
	}
	if cfg.DataAddr == "" {
		cfg.DataAddr = "127.0.0.1:0"
	}

	registry := cluster.NewRegistry()
	hub, err := server.NewHub(registry, cfg.ClientAddr, cfg.ControlAddr, cfg.DataAddr)
	if err != nil {
		return nil, err
	}
	if cfg.Logf != nil {
		hub.SetLogf(cfg.Logf)
	} else {
		hub.SetLogf(func(string, ...any) {})
	}
	engine, err := central.NewShardedEngineWith(max(1, cfg.CentralShards), cfg.Central)
	if err != nil {
		hub.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{
		Catalog:    cfg.Catalog,
		Registry:   registry,
		Engine:     engine,
		Dispatcher: hub,
	})
	if err != nil {
		hub.Close()
		return nil, err
	}
	hub.SetServer(srv)
	hub.Serve()

	nc := &NetCluster{
		Catalog:  cfg.Catalog,
		Registry: registry,
		Engine:   engine,
		Server:   srv,
		Hub:      hub,
	}
	ctx, cancel := context.WithCancel(context.Background())
	nc.cancel = cancel

	for _, h := range cfg.Hosts {
		hostName := h.Name
		sopt := cfg.Sink
		copt := cfg.Control
		if cfg.WrapConn != nil {
			sopt.Wrap = func(raw net.Conn) net.Conn { return cfg.WrapConn(hostName, raw) }
			copt.Dial = func(addr string, timeout time.Duration) (*transport.Conn, error) {
				return transport.DialWith(addr, timeout, func(raw net.Conn) net.Conn {
					return cfg.WrapConn(hostName, raw)
				})
			}
		}
		sink := host.NewNetSinkWith(hub.DataAddr(), hostName, sopt)
		acfg := cfg.Agent
		acfg.HostID = hostName
		acfg.Service = h.Service
		acfg.DC = h.DC
		acfg.Catalog = cfg.Catalog
		acfg.Sink = sink
		agent, err := host.New(acfg)
		if err != nil {
			cancel()
			nc.Close()
			return nil, err
		}
		// Spill-buffer overflow lands in the agent's cumulative drop
		// counters, so central reports outage losses like queue drops.
		sink.SetDropAccounting(agent.AccountDrops)
		nc.agents = append(nc.agents, agent)
		nc.sinks = append(nc.sinks, sink)
		go func() { _ = agent.RunControlWith(ctx, hub.ControlAddr(), copt) }()
	}

	// Wait for registrations so queries submitted right away see their
	// targets.
	deadline := time.Now().Add(5 * time.Second)
	for registry.Len() < len(cfg.Hosts) {
		if time.Now().After(deadline) {
			nc.Close()
			return nil, fmt.Errorf("core: only %d/%d hosts registered", registry.Len(), len(cfg.Hosts))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nc, nil
}

// Agent returns the i'th agent (creation order).
func (nc *NetCluster) Agent(i int) *host.Agent { return nc.agents[i] }

// NumAgents returns the agent count.
func (nc *NetCluster) NumAgents() int { return len(nc.agents) }

// Client opens a troubleshooter connection to the cluster.
func (nc *NetCluster) Client() (*server.Client, error) {
	return server.DialClient(nc.Hub.ClientAddr())
}

// Close tears everything down.
func (nc *NetCluster) Close() {
	if nc.cancel != nil {
		nc.cancel()
	}
	if nc.Server != nil {
		nc.Server.Close()
	}
	for _, a := range nc.agents {
		a.Close()
	}
	for _, s := range nc.sinks {
		s.Close()
	}
	if nc.Hub != nil {
		nc.Hub.Close()
	}
}
