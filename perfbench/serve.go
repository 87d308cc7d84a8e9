package main

import (
	"fmt"
	"time"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

const (
	serveEps       = 0.03 // one fault draw; the engine serves the repaired network
	serveFaultSeed = 1    // ftserve's default fault draw; traffic comes from --seed
	serveShards    = 4    // ftserve's default engine: sharded, 4 shards
	serveRate      = 4.0  // Poisson arrivals per unit virtual time
	serveHold      = 4.0  // mean exponential holding time: 16 Erlangs offered to 64 terminals
	serveArrivals  = 2500 // arrivals per serving session
	serveSessions  = 16   // sessions replayed per cycle
)

var serveCfg = netsim.ServeConfig{MaxArrivals: serveArrivals}

// serveRig is the open-loop serving set-up: a sharded engine on the
// network repaired from one fault draw, and a uniform Poisson traffic
// source. Session k replays the source from its own seed, so a session
// is a pure function of (seed, k).
type serveRig struct {
	seed uint64
	nw   *core.Network
	inst *fault.Instance
	se   *route.ShardedEngine
	src  *netsim.TrafficSource
	loop netsim.Loop
	slo  stats.SLO
}

func newServeRig(seed uint64) (*serveRig, error) {
	nw, err := core.Build(core.DefaultParams(benchNu))
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	inst := fault.Inject(nw.G, fault.Symmetric(serveEps), rng.New(serveFaultSeed))
	return &serveRig{
		seed: seed,
		nw:   nw,
		inst: inst,
		se:   route.NewRepairedShardedEngine(inst, serveShards),
		src: netsim.NewTrafficSource(sessionSeed(seed, 0), netsim.NewPoisson(serveRate),
			netsim.NewExpHolding(serveHold), netsim.NewUniformPattern(nw.Inputs(), nw.Outputs())),
	}, nil
}

func sessionSeed(seed, k uint64) uint64 {
	var r rng.RNG
	r.ReseedStream(seed, k+1)
	return r.Uint64()
}

// sessionRecord is what a session's output check compares: the final SLO
// snapshot and the engine's serving counters over the session.
type sessionRecord struct {
	snap stats.SLOSnapshot
	es   route.EngineStats
}

func (s sessionRecord) events() int64 { return s.snap.Offered + s.snap.Departed }

// session serves session k through eng, which must be rig.se or a
// decorator around it, pulling arrivals from src, rig.src or a decorator
// around it. Every departure drains, so the engine ends with no circuit.
func (rig *serveRig) session(k uint64, eng route.Engine, src netsim.Source) (sessionRecord, error) {
	before := rig.se.Stats()
	rig.src.Reset(sessionSeed(rig.seed, k))
	rig.slo = stats.SLO{}
	if err := rig.loop.Serve(eng, src, serveCfg, &rig.slo); err != nil {
		return sessionRecord{}, fmt.Errorf("session %d: %w", k, err)
	}
	return sessionRecord{snap: rig.slo.Snapshot(), es: engineDelta(rig.se.Stats(), before)}, nil
}

func engineDelta(a, b route.EngineStats) route.EngineStats {
	return route.EngineStats{
		Batches:  a.Batches - b.Batches,
		Requests: a.Requests - b.Requests,
		Accepted: a.Accepted - b.Accepted,
		Rejected: a.Rejected - b.Rejected,
	}
}

// serveWindowEvents is the work in one measured window of serving.
const serveWindowEvents = 2048

// timedEngine forwards to a route.Engine, recording the wall time of each
// ConnectBatch.
type timedEngine struct {
	route.Engine
	lat []int64
}

func (e *timedEngine) ConnectBatch(reqs []route.Request, res []route.Result) []route.Result {
	t0 := time.Now()
	res = e.Engine.ConnectBatch(reqs, res)
	e.lat = append(e.lat, int64(time.Since(t0)))
	return res
}

func runServe(cfg config) (result, error) {
	hc := newHostClock(cfg.log)
	base := liveHeap()
	setup, rig, err := measureSetup(cfg.setups, hc,
		func() (*serveRig, error) { return newServeRig(cfg.seed) },
		func(r *serveRig) { r.se.Close() })
	if err != nil {
		return result{}, err
	}
	defer rig.se.Close()
	// Cycle 0 warms up and records the reference session records every
	// later replay must reproduce.
	ref := make([]sessionRecord, serveSessions)
	var batches int64
	t0 := time.Now()
	for k := range ref {
		rig.se.Reset()
		if ref[k], err = rig.session(uint64(k), rig.se, rig.src); err != nil {
			return result{}, err
		}
		batches += ref[k].es.Batches
	}
	d := time.Since(t0)
	heap := float64(liveHeap()-base) / (1 << 20)
	if cfg.trace {
		return traceServe(cfg, rig, ref)
	}

	cycles := int(cfg.measure.Seconds()/d.Seconds()) + 1
	hc.lat = make([]float64, 0, 2*cycles*int(batches))
	timed := &timedEngine{Engine: rig.se, lat: make([]int64, 0, batches)}
	var failed int64
	deadline := time.Now().Add(cfg.measure)
	for c := 0; c == 0 || time.Now().Before(deadline); c++ {
		for k := range ref {
			timed.lat = timed.lat[:0]
			t0 := time.Now()
			rig.se.Reset()
			rec, err := rig.session(uint64(k), timed, rig.src)
			d := time.Since(t0)
			if err != nil {
				return result{}, err
			}
			hc.unit(d, rec.events(), timed.lat)
			failed += sessionMismatch(cfg, k, rec, ref[k], "replay")
		}
	}
	router, err := checkSessions(cfg, rig, ref)
	if err != nil {
		return result{}, err
	}
	failed += router
	v := map[string]float64{"setup_s": setup, "heap_mb": heap}
	hc.metrics(serveSessions, v)
	return newResult(cfg, hc.total(), failed, v), nil
}

// sessionMismatch compares a session's record with the reference, logging
// a difference, and returns the session's events if they differ.
func sessionMismatch(cfg config, k int, got, want sessionRecord, what string) int64 {
	if got == want {
		return 0
	}
	fmt.Fprintf(cfg.log, "perfbench: session %d: %s %+v, reference %+v\n", k, what, got, want)
	return want.events()
}

// checkSessions replays every reference session on a sequential repaired
// Router and compares the final SLO snapshot and engine counters. It
// returns the events of the sessions that differ.
func checkSessions(cfg config, rig *serveRig, ref []sessionRecord) (int64, error) {
	rt := route.NewRepairedRouter(rig.inst)
	rt.EnablePathReuse()
	var failed int64
	for k := range ref {
		rt.Reset()
		before := rt.Stats()
		rig.src.Reset(sessionSeed(rig.seed, uint64(k)))
		var slo stats.SLO
		if err := rig.loop.Serve(rt, rig.src, serveCfg, &slo); err != nil {
			return 0, fmt.Errorf("session %d on the Router: %w", k, err)
		}
		got := sessionRecord{snap: slo.Snapshot(), es: engineDelta(rt.Stats(), before)}
		failed += sessionMismatch(cfg, k, got, ref[k], "sequential Router")
	}
	return failed, nil
}

// traceServe measures the per-layer breakdown of serving. Session by
// session, the engine serves untraced and then replays the same session
// with span-recording decorators around the engine and the source (the
// order alternates); both must reproduce the reference record.
func traceServe(cfg config, rig *serveRig, ref []sessionRecord) (result, error) {
	m0 := mallocs()
	rig.se.Reset()
	warm, err := rig.session(0, rig.se, rig.src)
	if err != nil {
		return result{}, err
	}
	allocs := float64(mallocs()-m0) / float64(warm.events())

	tr := newTracer()
	eng := &tracedEngine{Engine: rig.se, tr: tr}
	src := &tracedSource{src: rig.src, tr: tr}
	var st route.ShardedStats
	var wallA, wallB time.Duration
	var failed, events, offered, rejected, sessions int64
	var behind float64
	deadline := time.Now().Add(cfg.measure)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % serveSessions
		untraced := func() error {
			t0 := time.Now()
			rig.se.Reset()
			rec, err := rig.session(uint64(k), rig.se, rig.src)
			wallA += time.Since(t0)
			failed += sessionMismatch(cfg, k, rec, ref[k], "untraced")
			return err
		}
		if i%2 == 0 {
			if err := untraced(); err != nil {
				return result{}, err
			}
		}
		st0 := rig.se.ShardedStats()
		t0 := time.Now()
		tr.begin(spanReset)
		rig.se.Reset()
		tr.end()
		tr.begin(spanServe)
		rec, err := rig.session(uint64(k), eng, src)
		tr.end()
		wallB += time.Since(t0)
		if err != nil {
			return result{}, err
		}
		addStatsDelta(&st, rig.se.ShardedStats(), st0)
		failed += sessionMismatch(cfg, k, rec, ref[k], "traced")
		if i%2 == 1 {
			if err := untraced(); err != nil {
				return result{}, err
			}
		}
		sessions++
		events += rec.events()
		offered += rec.snap.Offered
		rejected += rec.snap.Rejected
		behind += float64(rec.snap.P99)
	}
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Fprintf(cfg.log, "perfbench: %d sessions (%d events) traced in %v (untraced %v), %d events failed checks, spans kept %d dropped %d\n",
		sessions, events, wallB, wallA, failed, len(tr.spans), tr.dropped)

	n := float64(events)
	v := layerValues(tr, st, n)
	v["trace.overhead"] = float64(wallB) / float64(wallA)
	v["trace.op_us"] = float64(wallB) / 1e3 / n
	v["allocs_per_op"] = allocs
	v["fault.inject.failures"] = 0
	v["core.maskupdate.vertex_flips"] = 0
	v["core.maskupdate.edge_entries"] = 0
	v["core.certificate.pass_share"] = 0
	v["route.guide.full_rebuild_share"] = 0
	v["netsim.serve.behind_p99"] = behind / float64(sessions)
	v["netsim.serve.reject_share"] = ratio(float64(rejected), float64(offered))
	return newResult(cfg, 2*events, failed, v), nil
}
