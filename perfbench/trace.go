package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ftcsn/internal/netsim"
	"ftcsn/internal/route"
)

// spanID names a layer boundary the traced run times from outside the
// program: each span wraps one call into a layer's public API.
type spanID uint8

const (
	spanTrial       spanID = iota // one replica trial (root)
	spanFill                      // fault.BatchInjector.FillStream, once per block (root)
	spanInject                    // fault.BatchInjector.ApplyNext
	spanMaskUpdate                // core.MaskUpdater.Apply
	spanWitness                   // fault.Instance.ShortedTerminalsFromList
	spanCertificate               // core.Network.MajorityAccessInto
	spanReset                     // route.Engine.Reset
	spanGuide                     // route.Engine.MasksChangedDiff
	spanChurn                     // netsim.ChurnDriver.Run
	spanConnect                   // route.Engine.ConnectBatch
	spanDisconnect                // route.Engine.Disconnect
	spanServe                     // netsim.Loop.Serve, one serving session (root)
	spanSource                    // netsim.Source.Next
	numSpans
)

var spanNames = [numSpans]string{
	"trial", "fault.fill", "fault.inject", "core.maskupdate", "fault.witness",
	"core.certificate", "route.reset", "route.guide", "netsim.churn",
	"route.connect", "route.disconnect", "netsim.serve", "netsim.source",
}

// maxKeptSpans bounds the spans kept in memory for the dump (24 bytes
// each). Self times are accumulated as spans close, so spans past the
// bound still count; they are only left out of the written file.
const maxKeptSpans = 1 << 18

type span struct {
	id         spanID
	parent     int32 // index into tracer.spans, -1 for a root
	start, end int64 // nanoseconds since the tracer's origin
}

type frame struct {
	id    spanID
	idx   int32 // index into tracer.spans, -1 when not kept
	start int64
	child int64 // summed durations of closed child spans
}

// tracer records properly nested spans. A span's self time is its
// duration minus the durations of its direct children; because children
// never overlap, the self times of all spans under a root sum to the
// root's duration exactly.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int64
	stack   []frame
	self    [numSpans]int64
	calls   [numSpans]int64
	roots   int64 // summed durations of root spans
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		spans:  make([]span, 0, maxKeptSpans),
		stack:  make([]frame, 0, 8),
	}
}

// reset forgets everything recorded so far (after a warm-up).
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.dropped = 0
	t.stack = t.stack[:0]
	t.self = [numSpans]int64{}
	t.calls = [numSpans]int64{}
	t.roots = 0
}

func (t *tracer) begin(id spanID) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	start := int64(time.Since(t.origin))
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{id: id, parent: parent, start: start})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{id: id, idx: idx, start: start})
}

func (t *tracer) end() {
	end := int64(time.Since(t.origin))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - f.start
	t.self[f.id] += d - f.child
	t.calls[f.id]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	} else {
		t.roots += d
	}
	if f.idx >= 0 {
		t.spans[f.idx].end = end
	}
}

// share returns the summed self time of the given spans as a share of
// all root-span time.
func (t *tracer) share(ids ...spanID) float64 {
	if t.roots == 0 {
		return 0
	}
	var s int64
	for _, id := range ids {
		s += t.self[id]
	}
	return float64(s) / float64(t.roots)
}

// selfFromSpans derives per-span self times from the kept spans alone —
// the offline form of what end accumulates — so the two can be compared.
func selfFromSpans(spans []span) [numSpans]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var self [numSpans]int64
	for i, s := range spans {
		self[s.id] += s.end - s.start - child[i]
	}
	return self
}

// write dumps the kept spans as tab-separated values: index, name, parent
// index (-1 for a root), start and end in nanoseconds since the origin.
// Spans under one root belong to one trial or serving session.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans kept %d, dropped past the in-memory bound %d\n", len(t.spans), t.dropped)
	fmt.Fprintln(w, "index\tname\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[s.id], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine forwards to a route.Engine, recording a span around each
// ConnectBatch and Disconnect.
type tracedEngine struct {
	route.Engine
	tr *tracer
}

func (e *tracedEngine) ConnectBatch(reqs []route.Request, res []route.Result) []route.Result {
	e.tr.begin(spanConnect)
	res = e.Engine.ConnectBatch(reqs, res)
	e.tr.end()
	return res
}

func (e *tracedEngine) Disconnect(in, out int32) error {
	e.tr.begin(spanDisconnect)
	err := e.Engine.Disconnect(in, out)
	e.tr.end()
	return err
}

// tracedSource forwards to a netsim.Source, recording a span around each
// Next.
type tracedSource struct {
	src netsim.Source
	tr  *tracer
}

func (s *tracedSource) Next(a *netsim.Arrival) bool {
	s.tr.begin(spanSource)
	ok := s.src.Next(a)
	s.tr.end()
	return ok
}
