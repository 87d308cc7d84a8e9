package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// The host is shared with other machines' work: over a run, neighbours'
// load slows this program by up to 2× for stretches of seconds to
// minutes, so raw wall times of the same work differ by 10-35% between
// runs. Every timing metric is therefore reported at a reference host
// speed: right after each unit of measured work the benchmark times a
// fixed probe of its own and scales the unit's timings by
// probeRefNs / probe time. The probe is the same kind of work as the
// workloads — a breadth-first search and a word-parallel reachability
// sweep over a fixed layered graph the size of Network 𝒩 — so the same
// neighbours slow it alike. Over eight 20-second theorem2 runs on the
// 2-vCPU Xeon this was tuned on, the quartile spread of throughput was
// 6.5% raw, 5.8% scaled by a random-access memory probe, and 1.8% scaled
// by this one.
const (
	probeLayers = 16
	probeWidth  = 512 // vertices per layer
	probeDegree = 6   // edges from each vertex to the next layer
	// probeRefNs is the probe's time on the tuning host when no
	// neighbour slows it (the fastest of 5,312 probes took 426 us, the
	// median 660 us), so scaled times read as that host's unloaded times.
	probeRefNs = 430_000
)

// hostClock runs the probe and keeps the scaled timings of every replay.
// A run replays the same units in the same order, cycle after cycle, so
// unit i of the run is unit i mod U of the cycle, and latency sample j is
// operation j mod P.
type hostClock struct {
	start, heads []int32 // the probe graph, forward CSR
	seen         []uint32
	epoch        uint32
	queue        []int32
	reach        []uint64
	src          int32
	log          io.Writer

	probes   int
	probeSum float64 // seconds

	walls []float64 // scaled unit wall times, seconds
	ops   []int64   // operations per unit
	lat   []float64 // scaled per-operation latencies, nanoseconds
	raw   float64   // unscaled seconds over all units
}

func newHostClock(log io.Writer) *hostClock {
	const n = probeLayers * probeWidth
	hc := &hostClock{
		start: make([]int32, n+1),
		heads: make([]int32, 0, (probeLayers-1)*probeWidth*probeDegree),
		seen:  make([]uint32, n),
		queue: make([]int32, 0, n),
		reach: make([]uint64, n),
		log:   log,
	}
	x := uint32(7)
	for v := 0; v < n; v++ {
		hc.start[v] = int32(len(hc.heads))
		if layer := v / probeWidth; layer < probeLayers-1 {
			for d := 0; d < probeDegree; d++ {
				x = x*1664525 + 1013904223
				hc.heads = append(hc.heads, int32((layer+1)*probeWidth+int(x>>8)%probeWidth))
			}
		}
	}
	hc.start[n] = int32(len(hc.heads))
	for i := 0; i < 8; i++ {
		hc.probe()
	}
	hc.probes, hc.probeSum = 0, 0
	return hc
}

// probe runs the fixed probe — twice, a breadth-first search from a
// rotating first-layer source and a reachability sweep in reverse layer
// order — and returns its wall time.
func (hc *hostClock) probe() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < 2; rep++ {
		hc.epoch++
		hc.src = (hc.src + 97) % probeWidth
		hc.queue = append(hc.queue[:0], hc.src)
		hc.seen[hc.src] = hc.epoch
		for i := 0; i < len(hc.queue); i++ {
			v := hc.queue[i]
			for _, w := range hc.heads[hc.start[v]:hc.start[v+1]] {
				if hc.seen[w] != hc.epoch {
					hc.seen[w] = hc.epoch
					hc.queue = append(hc.queue, w)
				}
			}
		}
		for v := len(hc.reach) - 1; v >= 0; v-- {
			r := uint64(1) << (uint(v) & 63)
			for _, w := range hc.heads[hc.start[v]:hc.start[v+1]] {
				r |= hc.reach[w]
			}
			hc.reach[v] = r
		}
	}
	d := time.Since(t0)
	hc.probes++
	hc.probeSum += d.Seconds()
	return d
}

// scale probes the host and returns the factor that turns a wall time
// measured just before into reference-host time.
func (hc *hostClock) scale() float64 {
	return probeRefNs / float64(hc.probe().Nanoseconds())
}

// unit records one unit of measured work: its wall time, operation count
// and per-operation latencies (nanoseconds), all scaled to the reference
// host.
func (hc *hostClock) unit(wall time.Duration, ops int64, lat []int64) {
	f := hc.scale()
	hc.walls = append(hc.walls, wall.Seconds()*f)
	hc.ops = append(hc.ops, ops)
	hc.raw += wall.Seconds()
	for _, ns := range lat {
		hc.lat = append(hc.lat, float64(ns)*f)
	}
}

// metrics fills the end-to-end timing metrics from whole cycles of units
// units each. Each unit's time and each operation's latency is the median
// over its replays, which drops the replays a burst of neighbour load hit;
// throughput is one cycle's operations over the sum of its unit times,
// and the latency mean and p99 are taken over the operations.
func (hc *hostClock) metrics(units int, v map[string]float64) {
	cycles := len(hc.walls) / units
	var cycleOps int64
	var cycleSecs float64
	for u := 0; u < units; u++ {
		cycleOps += hc.ops[u]
		cycleSecs += medianStride(hc.walls, u, units)
	}
	positions := len(hc.lat) / cycles
	lat := make([]float64, positions)
	var sum float64
	for p := range lat {
		lat[p] = medianStride(hc.lat, p, positions)
		sum += lat[p]
	}
	v["ops_per_s"] = float64(cycleOps) / cycleSecs
	v["op_us_mean"] = sum / float64(positions) / 1e3
	v["op_us_p99"] = quantile(lat, 0.99) / 1e3
	fmt.Fprintf(hc.log, "perfbench: %d cycles of %d units, %d operations and %d latency samples each; unscaled %.6g ops/s; probe mean %.1f us over %d probes (reference %.1f us)\n",
		cycles, units, cycleOps, positions, float64(int64(cycles)*cycleOps)/hc.raw,
		hc.probeSum/float64(hc.probes)*1e6, hc.probes, probeRefNs/1e3)
}

// total returns the operations over all recorded units.
func (hc *hostClock) total() int64 {
	var n int64
	for _, ops := range hc.ops {
		n += ops
	}
	return n
}

// medianStride is the median of xs[first], xs[first+stride], ...
func medianStride(xs []float64, first, stride int) float64 {
	var s []float64
	for i := first; i < len(xs); i += stride {
		s = append(s, xs[i])
	}
	return median(s)
}

// quantile returns the q-quantile (nearest rank) of xs, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q * float64(len(xs))))
	k = max(1, min(k, len(xs)))
	return xs[k-1]
}
