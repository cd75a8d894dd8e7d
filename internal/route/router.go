package route

import (
	"fmt"
	"sort"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
)

// RouteDesign globally routes every non-clock signal net of the design
// over the database's grid, then runs negotiation iterations until
// overflow clears or the iteration budget is spent.
//
// Every wave — the initial pass and each rip-up iteration — routes its
// nets one after another in a fixed order, each against the congestion
// every earlier net left. Options.Workers parallelizes only the
// congestion-independent work around the waves (net prep and the
// overflowed-net scan), so results are bit-identical at any worker
// count.
func RouteDesign(d *netlist.Design, db *DB) (*Result, error) {
	workers := par.Workers(db.opt.Workers)
	res := &Result{
		Routes:     make([]*NetRoute, len(d.Nets)),
		WLPerLayer: make([]float64, db.Beol.NumLayers()),
	}

	// Initial pattern routing, long nets first (they set the congestion
	// landscape the short nets then dodge).
	order := make([]*netlist.Net, 0, len(d.Nets))
	for _, n := range d.Nets {
		if n.Clock || len(n.Sinks) == 0 {
			continue
		}
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		hi, hj := order[i].HPWL(), order[j].HPWL()
		if hi != hj {
			return hi > hj
		}
		return order[i].ID < order[j].ID
	})
	// Metric handles are hoisted out of the negotiation loop; every
	// call is a no-op when no recorder backs the stage span.
	sp := db.opt.Obs
	reg := sp.Reg()
	routedC := reg.Counter("route_nets_routed_total",
		"Signal nets routed by the initial pattern pass.")
	iterC := reg.Counter("route_negotiation_iterations_total",
		"Rip-up-and-reroute negotiation iterations executed.")
	ripupC := reg.Counter("route_ripup_nets_total",
		"Overflowed nets ripped up and rerouted during negotiation.")
	failC := reg.Counter("route_reroute_failed_total",
		"Rip-up attempts that kept the old route after a failed reroute.")
	overG := reg.Gauge("route_overflow_gcells",
		"Gcell-layers above capacity after the latest negotiation state.")
	reg.Gauge("route_workers",
		"Worker goroutines used by routing net prep and the overflow scan.").Set(float64(workers))
	mt := db.opt.Trace.Track("main")
	// Rip-up iterations render as containers on their own track; the
	// analyzer charges them only for time no leaf slice covers.
	iterTrack := db.opt.Trace.Track("route iterations")
	// One maze scratch serves every two-pin search of the run; its
	// hit/miss counters are reported as this run's delta.
	scr := db.scratch()
	hits0, misses0 := scr.hits, scr.misses

	// Net prep (pin nodes, MST decomposition) is a pure function of
	// the placement, so it parallelizes freely.
	tasks := make([]*netTask, len(order))
	errs := make([]error, len(order))
	par.ItemsTr(db.opt.Trace.WorkerSet("route", workers), "route/prep", workers, len(order), func(w, i int) {
		tasks[i], errs[i] = db.prepTask(order[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	db.routeWave(tasks, false, res, mt)
	routedC.Add(uint64(len(order)))

	// Negotiated rip-up and reroute. Early iterations reroute with
	// congestion-aware pattern routes (cheap); later iterations escal-
	// ate to full maze search for the stubborn remainder.
	for it := 0; it < db.opt.MaxIters; it++ {
		over := db.Overflow()
		overG.Set(float64(over))
		if over == 0 {
			break
		}
		db.bumpHistory()
		victims := db.overflowedNets(res, workers)
		if len(victims) == 0 {
			break
		}
		isp := sp.Child("rip-up-iter",
			obs.KV("iter", it), obs.KV("overflow", over), obs.KV("victims", len(victims)))
		itsl := iterTrack.Begin("stage", "route/rip-up-iter")
		iterC.Inc()
		// Bound the work per iteration; the worst offenders first
		// (longest nets through congestion).
		sort.Slice(victims, func(i, j int) bool { return victims[i].HPWL() > victims[j].HPWL() })
		const maxVictims = 600
		if len(victims) > maxVictims {
			victims = victims[:maxVictims]
		}
		useMaze := it >= 2
		vt := make([]*netTask, 0, len(victims))
		for _, n := range victims {
			t, err := db.prepTask(n)
			if err != nil {
				// Keep the old route rather than fail the design.
				failC.Inc()
				continue
			}
			t.old = res.Routes[n.ID]
			vt = append(vt, t)
		}
		db.routeWave(vt, useMaze, res, mt)
		ripupC.Add(uint64(len(victims)))
		itsl.End(trace.N("iter", int64(it)), trace.N("victims", int64(len(victims))),
			trace.N("overflow", int64(over)))
		isp.End()
	}

	// Final accounting.
	for _, r := range res.Routes {
		if r == nil {
			continue
		}
		r.WL, r.Vias, r.F2F = 0, 0, 0
		for _, s := range r.Segments {
			if s.IsVia() {
				r.Vias++
				lo := min(s.A.L, s.B.L)
				if db.f2fIdx >= 0 && lo == db.f2fIdx {
					r.F2F++
				}
				continue
			}
			l := db.segLen(s)
			r.WL += l
			res.WLPerLayer[s.A.L] += l
		}
		res.WL += r.WL
		res.Vias += r.Vias
		res.F2FBumps += r.F2F
	}
	res.Overflow = db.Overflow()
	overG.Set(float64(res.Overflow))

	// Scratch reuse for this run.
	hits, misses := scr.hits-hits0, scr.misses-misses0
	reg.Counter("route_scratch_hits_total",
		"Maze searches served by an already-sized scratch allocation.").Add(hits)
	reg.Counter("route_scratch_misses_total",
		"Maze searches that had to grow their scratch backing arrays.").Add(misses)
	if hits+misses > 0 {
		reg.Gauge("route_scratch_hit_ratio",
			"Fraction of maze searches reusing scratch memory, latest run.").
			Set(float64(hits) / float64(hits+misses))
	}
	return res, nil
}

// routeWave routes the ordered tasks one after another, each against
// the congestion every earlier task left: a rip-up victim's old route
// is released just before its reroute, and each new route commits its
// usage and result slot before the next task routes.
func (db *DB) routeWave(tasks []*netTask, maze bool, res *Result, tr *trace.Track) {
	ssp := tr.Begin("route", "route/serial-pass")
	for _, t := range tasks {
		if t.old != nil {
			db.addUsage(t.old, -1)
		}
		db.routeTask(t, maze)
		db.addUsage(t.route, 1)
		res.Routes[t.net.ID] = t.route
	}
	ssp.End(trace.N("nets", int64(len(tasks))))
}

// netTask is the per-net unit of work: the deterministic prep (pin
// nodes, MST edges), plus the old route when the task is a negotiation
// rip-up.
type netTask struct {
	net   *netlist.Net
	route *NetRoute
	edges [][2]int  // MST edges as pin-index pairs
	old   *NetRoute // non-nil for rip-up victims
}

// prepTask resolves pin nodes and decomposes the net into two-pin MST
// edges. Pure function of the placement — independent of congestion,
// so prep order never affects results.
func (db *DB) prepTask(n *netlist.Net) (*netTask, error) {
	pins := n.Pins()
	r := &NetRoute{Net: n, PinNode: make([]Node, len(pins))}
	for i, p := range pins {
		nd, err := db.PinNode(p)
		if err != nil {
			return nil, fmt.Errorf("net %s: %w", n.Name, err)
		}
		r.PinNode[i] = nd
	}
	t := &netTask{net: n, route: r}
	if len(pins) < 2 {
		return t, nil
	}
	// Prim MST over pin grid locations.
	inTree := make([]bool, len(pins))
	inTree[0] = true
	t.edges = make([][2]int, 0, len(pins)-1)
	for k := 1; k < len(pins); k++ {
		best, bi, bj := 1<<30, -1, -1
		for i := range pins {
			if !inTree[i] {
				continue
			}
			for j := range pins {
				if inTree[j] {
					continue
				}
				d := geom.AbsInt(r.PinNode[i].X-r.PinNode[j].X) +
					geom.AbsInt(r.PinNode[i].Y-r.PinNode[j].Y)
				if d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		inTree[bj] = true
		t.edges = append(t.edges, [2]int{bi, bj})
	}
	return t, nil
}

// routeTask computes the task's segments against current congestion,
// one MST edge at a time. Maze-mode failures fall back to the pattern
// route.
func (db *DB) routeTask(t *netTask, maze bool) {
	for _, e := range t.edges {
		a, b := t.route.PinNode[e[0]], t.route.PinNode[e[1]]
		if maze {
			segs, err := db.mazeRouteScratch(db.scratch(), a, b, t.route.Segments)
			if err == nil {
				t.route.Segments = segs
				continue
			}
		}
		t.route.Segments = append(t.route.Segments, db.patternRoute(a, b)...)
	}
}

// RouteNet routes a single net against current congestion and commits
// its usage. Used by the optimizer for incrementally created nets
// (buffer insertion) and by flows for ECO reroutes.
func (db *DB) RouteNet(n *netlist.Net) (*NetRoute, error) {
	t, err := db.prepTask(n)
	if err != nil {
		return nil, err
	}
	db.routeTask(t, false)
	r := t.route
	db.opt.Obs.Reg().Counter("route_eco_reroutes_total",
		"Single-net ECO routes (optimizer buffer nets and reroutes).").Inc()
	db.addUsage(r, 1)
	// Account the per-route metrics.
	for _, s := range r.Segments {
		if s.IsVia() {
			r.Vias++
			if db.f2fIdx >= 0 && min(s.A.L, s.B.L) == db.f2fIdx {
				r.F2F++
			}
			continue
		}
		r.WL += db.segLen(s)
	}
	return r, nil
}

// TranslateRoute returns a copy of a route shifted by (dx, dy) gcells
// — the tile-array composition primitive (routes replicate with their
// tile copy; grids must be aligned).
func TranslateRoute(r *NetRoute, dx, dy int) *NetRoute {
	t := &NetRoute{Net: r.Net, WL: r.WL, Vias: r.Vias, F2F: r.F2F}
	t.Segments = make([]Seg, len(r.Segments))
	for i, s := range r.Segments {
		t.Segments[i] = Seg{
			A: Node{X: s.A.X + dx, Y: s.A.Y + dy, L: s.A.L},
			B: Node{X: s.B.X + dx, Y: s.B.Y + dy, L: s.B.L},
		}
	}
	t.PinNode = make([]Node, len(r.PinNode))
	for i, n := range r.PinNode {
		t.PinNode[i] = Node{X: n.X + dx, Y: n.Y + dy, L: n.L}
	}
	return t
}

// CommitRoute registers an externally constructed route's congestion
// usage (counterpart of ReleaseNet).
func (db *DB) CommitRoute(r *NetRoute) {
	db.addUsage(r, 1)
}

// RebuildUsage recomputes the database's congestion state from scratch
// out of the given routes — used after a rollback of incremental
// edits.
func (db *DB) RebuildUsage(res *Result) {
	for i := range db.usage {
		db.usage[i] = 0
	}
	if db.f2fUse != nil {
		for i := range db.f2fUse {
			db.f2fUse[i] = 0
		}
	}
	for _, r := range res.Routes {
		if r != nil {
			db.addUsage(r, 1)
		}
	}
}

// SetRoute stores (or replaces) the route of a net, growing the table
// for incrementally added nets.
func (res *Result) SetRoute(netID int, r *NetRoute) {
	for netID >= len(res.Routes) {
		res.Routes = append(res.Routes, nil)
	}
	res.Routes[netID] = r
}

// ReleaseNet removes a route's usage (rip-up) ahead of a reroute.
func (db *DB) ReleaseNet(r *NetRoute) {
	db.addUsage(r, -1)
}

// Recount recomputes the result's aggregate metrics after incremental
// edits (added/changed routes).
func (res *Result) Recount(db *DB) {
	res.WL, res.Vias, res.F2FBumps = 0, 0, 0
	for i := range res.WLPerLayer {
		res.WLPerLayer[i] = 0
	}
	for _, r := range res.Routes {
		if r == nil {
			continue
		}
		r.WL, r.Vias, r.F2F = 0, 0, 0
		for _, s := range r.Segments {
			if s.IsVia() {
				r.Vias++
				if db.f2fIdx >= 0 && min(s.A.L, s.B.L) == db.f2fIdx {
					r.F2F++
				}
				continue
			}
			l := db.segLen(s)
			r.WL += l
			res.WLPerLayer[s.A.L] += l
		}
		res.WL += r.WL
		res.Vias += r.Vias
		res.F2FBumps += r.F2F
	}
	res.Overflow = db.Overflow()
}

// overflowedNets returns nets whose routes touch an overflowed
// gcell-layer, in net-ID order. The route scan fans out over
// contiguous net-ID chunks whose per-worker hit lists concatenate in
// chunk order, so the result is identical at any worker count.
func (db *DB) overflowedNets(res *Result, workers int) []*netlist.Net {
	bad := make([]bool, len(db.usage))
	any := false
	for i := range db.usage {
		if db.usage[i] > db.cap[i] {
			bad[i] = true
			any = true
		}
	}
	var badF2F []bool
	if db.f2fCap != nil {
		badF2F = make([]bool, len(db.f2fUse))
		for i := range db.f2fUse {
			if db.f2fUse[i] > db.f2fCap[i] {
				badF2F[i] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	workers = par.Workers(workers)
	hits := make([][]*netlist.Net, workers)
	par.Chunks(workers, len(res.Routes), func(w, lo, hi int) {
		for _, r := range res.Routes[lo:hi] {
			if r == nil {
				continue
			}
			hit := false
			for _, s := range r.Segments {
				if s.IsVia() {
					if badF2F != nil && db.f2fIdx >= 0 && min(s.A.L, s.B.L) == db.f2fIdx &&
						badF2F[db.Grid.Index(s.A.X, s.A.Y)] {
						hit = true
					}
					continue
				}
				forEachStep(s, func(n Node) {
					if bad[db.idx(n)] {
						hit = true
					}
				})
				if hit {
					break
				}
			}
			if hit {
				hits[w] = append(hits[w], r.Net)
			}
		}
	})
	var out []*netlist.Net
	for _, h := range hits {
		out = append(out, h...)
	}
	return out
}

// viaStack emits via segments moving from layer la to lb at (x, y).
func viaStack(x, y, la, lb int) []Seg {
	var segs []Seg
	step := 1
	if lb < la {
		step = -1
	}
	for l := la; l != lb; l += step {
		segs = append(segs, Seg{Node{x, y, l}, Node{x, y, l + step}})
	}
	return segs
}

// viaStackCost prices a via stack, including F2F crossings.
func (db *DB) viaStackCost(x, y, la, lb int) float64 {
	cost := float64(geom.AbsInt(lb-la)) * db.opt.ViaCost
	lo, hi := min(la, lb), max(la, lb)
	if db.f2fIdx >= 0 && lo <= db.f2fIdx && hi > db.f2fIdx {
		i := db.Grid.Index(x, y)
		if db.f2fUse[i]+1 > db.f2fCap[i] {
			cost += 64
		} else {
			// Bump crossings are cheap (44 mΩ, 1 fF): hybrid bonding is
			// dense enough that the router may route through the other
			// die to avoid congestion — the paper's routability
			// argument for Macro-3D.
			cost += 0.3
		}
	}
	return cost
}

// runCost prices a straight run on a layer.
func (db *DB) runCost(a, b Node) float64 {
	cost := 0.0
	forEachStep(Seg{a, b}, func(n Node) {
		cost += 1 + db.congestionCost(db.idx(n))
	})
	return cost
}

// patternRoute connects two nodes with the cheaper of the two L-shapes
// over a selection of H/V layer pairs.
func (db *DB) patternRoute(a, b Node) []Seg {
	pairs := db.hvPairs()
	if len(pairs) == 0 {
		// Degenerate single-direction stack: direct via stack plus run.
		return append(viaStack(a.X, a.Y, a.L, b.L), Seg{Node{a.X, a.Y, b.L}, b})
	}
	// Candidate pairs: prefer lower pairs for short nets, upper for
	// long; always consider every pair but bias via order (cost
	// decides).
	dist := geom.AbsInt(a.X-b.X) + geom.AbsInt(a.Y-b.Y)
	sort.SliceStable(pairs, func(i, j int) bool {
		// Rank by |preferred − pairLevel|: short nets target low
		// layers, long nets the top pair of the logic die; the longest
		// nets on a combined stack also consider the macro die's top
		// pair, routing through the other die when it is cheaper (the
		// F2F bump is nearly free at 44 mΩ / 1 fF).
		pref := 0
		if dist > 24 && db.f2fIdx >= 0 {
			pref = db.f2fIdx + 1
		} else if dist > 12 {
			pref = db.Beol.LogicDieLayers() - 1
		} else if dist > 4 {
			pref = 2
		}
		di := geom.AbsInt((pairs[i][0]+pairs[i][1])/2 - pref)
		dj := geom.AbsInt((pairs[j][0]+pairs[j][1])/2 - pref)
		return di < dj
	})
	if len(pairs) > 3 {
		pairs = pairs[:3]
	}

	best := -1.0
	var bestSegs []Seg
	for _, pr := range pairs {
		h, v := pr[0], pr[1]
		for _, firstH := range []bool{true, false} {
			var segs []Seg
			cost := 0.0
			if firstH {
				// a → (b.X, a.Y) horizontal on h, then vertical on v.
				segs = append(segs, viaStack(a.X, a.Y, a.L, h)...)
				cost += db.viaStackCost(a.X, a.Y, a.L, h)
				if b.X != a.X {
					s := Seg{Node{a.X, a.Y, h}, Node{b.X, a.Y, h}}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B)
				}
				segs = append(segs, viaStack(b.X, a.Y, h, v)...)
				cost += db.viaStackCost(b.X, a.Y, h, v)
				if b.Y != a.Y {
					s := Seg{Node{b.X, a.Y, v}, Node{b.X, b.Y, v}}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B)
				}
				segs = append(segs, viaStack(b.X, b.Y, v, b.L)...)
				cost += db.viaStackCost(b.X, b.Y, v, b.L)
			} else {
				// a → (a.X, b.Y) vertical on v, then horizontal on h.
				segs = append(segs, viaStack(a.X, a.Y, a.L, v)...)
				cost += db.viaStackCost(a.X, a.Y, a.L, v)
				if b.Y != a.Y {
					s := Seg{Node{a.X, a.Y, v}, Node{a.X, b.Y, v}}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B)
				}
				segs = append(segs, viaStack(a.X, b.Y, v, h)...)
				cost += db.viaStackCost(a.X, b.Y, v, h)
				if b.X != a.X {
					s := Seg{Node{a.X, b.Y, h}, Node{b.X, b.Y, h}}
					segs = append(segs, s)
					cost += db.runCost(s.A, s.B)
				}
				segs = append(segs, viaStack(b.X, b.Y, h, b.L)...)
				cost += db.viaStackCost(b.X, b.Y, h, b.L)
			}
			if best < 0 || cost < best {
				best = cost
				bestSegs = segs
			}
		}
	}
	return compactSegs(bestSegs)
}

// compactSegs drops zero-length artifacts.
func compactSegs(segs []Seg) []Seg {
	out := segs[:0]
	for _, s := range segs {
		if s.A == s.B {
			continue
		}
		out = append(out, s)
	}
	return out
}
