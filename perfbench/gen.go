package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/adplatform"
	"scrub/internal/event"
	"scrub/internal/host"
)

// Traffic shape shared by every workload.
const (
	numHosts     = 4
	numGen       = 2 // generator goroutines; the benchmark box has 2 cores
	numUsers     = 100_000
	zipfS        = 1.1
	numExchanges = 10
	numCampaigns = 100
	numLineItems = 1000
	maxExcl      = 3
	genTick      = time.Millisecond
)

var (
	reasons   = [...]string{"budget", "freq_cap", "geo", "segment", "pacing", "brand_safety", "creative", "floor"}
	cities    = [...]string{"sj", "nyc", "lon", "fra", "sin", "tok", "syd", "sao"}
	countries = [...]string{"us", "us", "uk", "de", "sg", "jp", "au", "br"}
	models    = [...]string{"A", "B"}
)

const numReasons = len(reasons)

// request is every value drawn for one request, in draw order.
type request struct {
	user         int32
	exchange     uint8
	campaign     uint8
	lineItem     int16
	nExcl        uint8
	city         uint8
	priceCents   int16
	reason       [maxExcl]uint8
	exclLineItem [maxExcl]int16
	publisher    [maxExcl]uint8
}

// stream is one generator goroutine's seeded request sequence. The run
// draws from it to build events; the tally replays it afterwards, so no
// record of the traffic has to live in the measured process's heap.
type stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(seed int64, gi int) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(gi)))
	return &stream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, numUsers-1)}
}

func (s *stream) next() request {
	q := request{
		user:     int32(s.zipf.Uint64()),
		exchange: uint8(s.rng.Intn(numExchanges)),
		campaign: uint8(s.rng.Intn(numCampaigns)),
		lineItem: int16(s.rng.Intn(numLineItems)),
		nExcl:    uint8(s.rng.Intn(maxExcl + 1)),
	}
	q.city = uint8(s.rng.Intn(len(cities)))
	q.priceCents = int16(s.rng.Intn(500))
	for e := 0; e < int(q.nExcl); e++ {
		q.reason[e] = uint8(s.rng.Intn(numReasons))
		q.exclLineItem[e] = int16(s.rng.Intn(numLineItems))
		q.publisher[e] = uint8(s.rng.Intn(50))
	}
	return q
}

// schedule is the open-loop plan: tick k is due at start + k·genTick,
// ticks due before measureEnd are measured, and no tick is due at or
// after stop.
type schedule struct {
	seed       int64
	reqPerSec  int
	start      time.Time
	measureEnd time.Time
	stop       time.Time
}

// due returns tick k's due time in unix nanos, and false once the
// schedule has ended.
func (sch schedule) due(k int64) (int64, bool) {
	d := sch.start.UnixNano() + k*int64(genTick)
	return d, d < sch.stop.UnixNano()
}

// requests returns how many requests one generator goroutine issues in
// tick k; the per-tick counts sum exactly to the goroutine's rate.
func (sch schedule) requests(k int64) int {
	perGen := int64(sch.reqPerSec / numGen)
	cum := func(k int64) int64 { return k * perGen * int64(genTick) / int64(time.Second) }
	return int(cum(k+1) - cum(k))
}

// genOut is one generator goroutine's record of its run.
type genOut struct {
	logNs  []float64 // per measured tick: ns inside Agent.Log per event
	lateNs []float64 // per measured tick: how late the tick started
}

// generator drives the hosts' Agent.Log calls. It draws every value
// from the seed before it starts a tick's timer, stamps each event with
// its due time, and never waits for the system: a slow system shows up
// as generator lateness, which invalidates the run.
type generator struct {
	sch    schedule
	agents []*host.Agent
	logged [numGen]atomic.Uint64
	out    [numGen]genOut
}

func newGenerator(sch schedule, agents []*host.Agent) *generator {
	return &generator{sch: sch, agents: agents}
}

// events returns how many events the generator has logged so far.
func (g *generator) events() uint64 {
	var n uint64
	for i := range g.logged {
		n += g.logged[i].Load()
	}
	return n
}

// run starts the generator goroutines and returns once every tick of the
// schedule has been logged.
func (g *generator) run() {
	var wg sync.WaitGroup
	for i := 0; i < numGen; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.loop(i)
		}(i)
	}
	wg.Wait()
}

func (g *generator) loop(gi int) {
	src := newStream(g.sch.seed, gi)
	out := &g.out[gi]
	bidSchema, exclSchema := adplatform.BidEventSchema, adplatform.ExclusionEventSchema
	nBid, nExcl := bidSchema.NumFields(), exclSchema.NumFields()
	measureEnd := g.sch.measureEnd.UnixNano()
	reqBase := uint64(gi+1) << 40
	var seq uint64

	var evs []event.Event
	var vals []event.Value
	var dest []*host.Agent
	for k := int64(0); ; k++ {
		due, ok := g.sch.due(k)
		if !ok {
			return
		}
		if d := time.Duration(due - time.Now().UnixNano()); d > 0 {
			time.Sleep(d)
		}
		late := time.Now().UnixNano() - due
		n := g.sch.requests(k)

		// Draw the tick's values before the timer starts.
		evs, vals, dest = evs[:0], vals[:0], dest[:0]
		if need := n * (1 + maxExcl); cap(evs) < need {
			evs = make([]event.Event, 0, need)
			vals = make([]event.Value, 0, need*max(nBid, nExcl))
			dest = make([]*host.Agent, 0, need)
		}
		for r := 0; r < n; r++ {
			seq++
			rid := reqBase | seq
			agent := g.agents[2*gi+int(seq%2)]
			q := src.next()
			bv := vals[len(vals) : len(vals)+nBid]
			vals = vals[:len(vals)+nBid]
			bv[0] = event.Int(int64(q.exchange))
			bv[1] = event.Int(int64(q.user))
			bv[2] = event.Str(cities[q.city])
			bv[3] = event.Str(countries[q.city])
			bv[4] = event.Float(float64(q.priceCents) / 100)
			bv[5] = event.Int(int64(q.campaign))
			bv[6] = event.Int(int64(q.lineItem))
			bv[7] = event.Str(models[seq%2])
			evs = append(evs, event.Event{Schema: bidSchema, RequestID: rid, TimeNanos: due, Values: bv})
			dest = append(dest, agent)
			for e := 0; e < int(q.nExcl); e++ {
				xv := vals[len(vals) : len(vals)+nExcl]
				vals = vals[:len(vals)+nExcl]
				xv[0] = event.Int(int64(q.exclLineItem[e]))
				xv[1] = event.Str(reasons[q.reason[e]])
				xv[2] = event.Int(int64(q.exchange))
				xv[3] = event.Int(int64(q.publisher[e]))
				evs = append(evs, event.Event{Schema: exclSchema, RequestID: rid, TimeNanos: due, Values: xv})
				dest = append(dest, agent)
			}
		}

		t0 := time.Now()
		for i := range evs {
			dest[i].Log(&evs[i])
		}
		el := time.Since(t0)
		if due < measureEnd && len(evs) > 0 {
			out.logNs = append(out.logNs, float64(el)/float64(len(evs)))
			out.lateNs = append(out.lateNs, float64(late))
		}
		g.logged[gi].Add(uint64(len(evs)))
	}
}

// userAgg is one user's exact per-window tally.
type userAgg struct{ n, sumEx int64 }

// campAgg is one (campaign predicate, exchange) cell's exact tally.
type campAgg struct{ n, sumLineItem int64 }

// winTally is the exact expected content of one window, per query shape.
type winTally struct {
	bids    int64
	users   map[int32]userAgg
	reasons [numReasons]int64
	camp    [fanoutPreds][numExchanges]campAgg
}

// tally holds the exact expected results, keyed by window start.
type tally map[int64]*winTally

// buildTally replays the schedule's request streams and folds every
// request into exact per-window expectations. perUser is off for
// workloads whose queries never read bid.user_id.
func buildTally(sch schedule, window time.Duration, perUser bool) tally {
	t := make(tally)
	w := int64(window)
	for gi := 0; gi < numGen; gi++ {
		src := newStream(sch.seed, gi)
		for k := int64(0); ; k++ {
			due, ok := sch.due(k)
			if !ok {
				break
			}
			ws := due - due%w
			for r, n := 0, sch.requests(k); r < n; r++ {
				q := src.next()
				wt := t[ws]
				if wt == nil {
					wt = &winTally{}
					if perUser {
						wt.users = make(map[int32]userAgg)
					}
					t[ws] = wt
				}
				wt.bids++
				if perUser {
					u := wt.users[q.user]
					u.n++
					u.sumEx += int64(q.exchange)
					wt.users[q.user] = u
				}
				for e := 0; e < int(q.nExcl); e++ {
					wt.reasons[q.reason[e]]++
				}
				if int(q.campaign) < fanoutPreds {
					c := &wt.camp[q.campaign][q.exchange]
					c.n++
					c.sumLineItem += int64(q.lineItem)
				}
			}
		}
	}
	return t
}
