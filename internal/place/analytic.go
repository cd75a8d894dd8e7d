// Electrostatics-style analytical global placement (ePlace family,
// after the die-to-die analytical placement formulation): a smooth
// weighted-average (WA) wirelength model descended jointly with a
// bin-grid density penalty whose potential comes from a Poisson solve
// over the existing binGrid. Cells are charges; overfilled bins build
// up potential and the field pushes cells toward free area, replacing
// the default placer's discrete bin-eviction spreading with a smooth,
// embarrassingly parallel force.
//
// The engine is gated behind Options.Analytic and is NOT bit-identical
// to the default quadratic placer — it is a different algorithm with
// different (better-or-equal HPWL) results, so the flag is part of the
// result-defining configuration. Within the analytic engine, results are bit-identical at any
// Workers setting: every parallel phase writes disjoint elements while
// reading frozen arrays, and every floating-point reduction (net HPWL
// sums, density means, overflow) replays in a fixed serial order. Max
// reductions combine per-chunk maxima, which is exact for floats.
package place

import (
	"math"
	"strings"
	"time"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/par"
	"macro3d/internal/tech"
)

// trSet abbreviates the tracer worker-set threaded through every
// parallel phase.
type trSet = *trace.Set

// Analytic-engine tuning constants. These are part of the deterministic
// result definition — changing them changes placements.
const (
	// analyticSeedIters quadratic net-centroid sweeps seed the descent
	// (the "coarse level" of the multilevel scheme: a cheap global
	// wirelength minimum the electrostatic refinement spreads out).
	analyticSeedIters = 12
	// analyticBumpWeight multiplies the WA weight of nets that span
	// both logic-die and `_MD` macro-die layers: such nets cross an
	// F2F bump, so a unit of their wirelength is costlier (bump RC +
	// finite bump-pitch congestion) than a same-die unit.
	analyticBumpWeight = 1.5
	// analyticSnapOverflow is the density-overflow ceiling below which
	// an iterate may be recorded as the best-HPWL snapshot.
	analyticSnapOverflow = 0.07
	// analyticStopOverflow ends the descent early once reached.
	analyticStopOverflow = 0.025
	// Poisson relaxation sweep counts per outer iteration (coarse grid
	// first, then the fine grid it seeds — a two-level multigrid
	// cascade over the binGrid). Even so ping-pong buffers land back
	// in place.
	analyticCoarseRelax = 16
	analyticFineRelax   = 8
)

// placeAnalytic runs the analytic global placer and hands the result to
// the shared legalizer. Mirrors Place()'s contract.
func placeAnalytic(d *netlist.Design, fp *floorplan.Floorplan, rowHeight float64, opt Options) (*Result, error) {
	t0 := time.Now()
	movable := movableCells(d)
	if len(movable) == 0 {
		return &Result{}, nil
	}
	workers := par.Workers(opt.Workers)
	if len(movable) < parMinCells {
		workers = 1
	}
	var busy time.Duration
	die := fp.Die
	// Separate stream from the default path: the engines share no RNG
	// state, so neither can perturb the other.
	rng := geom.NewRNG(opt.Seed + 11)

	pos := make([]geom.Point, len(d.Instances))
	for _, inst := range d.Instances {
		if inst.Fixed {
			pos[inst.ID] = inst.Center()
		} else {
			pos[inst.ID] = geom.Pt(
				die.Center().X+rng.Norm()*die.W()/20,
				die.Center().Y+rng.Norm()*die.H()/20,
			)
		}
	}

	adj := d.NetsOfInstance()
	bins := newBinGrid(die, opt.BinPitch, fp.PlaceBlk, opt.MaxFill)

	ts := opt.Trace.WorkerSet("place", workers)
	mt := opt.Trace.Track("main")

	gsp := opt.Obs.Child("global-analytic", obs.KV("cells", len(movable)))

	// Seed: a few quadratic net-centroid sweeps give the wirelength
	// minimum the electrostatic spreading starts from.
	anchor := make([]geom.Point, len(d.Instances))
	busy += solve(d, movable, adj, pos, anchor, 0, die, analyticSeedIters, workers, ts)

	st := newAnalyticState(d, movable, bins, workers)
	busy += st.netWeights(d, workers, ts)

	iters := opt.AnalyticIters
	// Continuation schedules: the WA smoothing γ tightens toward the
	// true max/min as the density weight λ ramps.
	gamma0, gamma1 := 4.0*opt.BinPitch, 0.5*opt.BinPitch
	lambda := 0.0
	best := ([]geom.Point)(nil)
	bestHP := math.MaxFloat64

	for it := 0; it < iters; it++ {
		frac := float64(it) / float64(maxInt(iters-1, 1))
		gamma := gamma0 * math.Pow(gamma1/gamma0, frac)
		step := (0.5 - 0.35*frac) * opt.BinPitch

		busy += st.wlGradient(d, movable, adj, pos, gamma, workers, ts)
		busy += st.density(movable, pos, workers, ts)
		busy += st.densGradient(movable, pos, workers, ts)

		// λ is calibrated once from the first iterate's gradient
		// magnitudes, then ramps geometrically: density starts as a
		// nudge and ends dominating, the ePlace weight schedule.
		wlMax, denMax := st.gradMaxima(workers)
		if it == 0 {
			if denMax > 0 {
				lambda = 0.08 * wlMax / denMax
			}
		} else {
			lambda *= 1.045
		}

		busy += st.descend(movable, pos, die, lambda, step, workers, ts)

		// Snapshot accounting is serial and in fixed order: exact
		// per-net HPWL summed in net order, overflow in movable order.
		hp := st.exactHPWL(d, pos, workers, ts)
		ovf := bins.overflow(movable, pos)
		if ovf <= analyticSnapOverflow && hp < bestHP {
			bestHP = hp
			if best == nil {
				best = make([]geom.Point, len(pos))
			}
			copy(best, pos)
		}
		if ovf <= analyticStopOverflow && it >= iters/4 {
			break
		}
	}
	if best != nil {
		copy(pos, best)
	}
	// Residual cleanup: one deterministic eviction round clears any
	// overflow the smooth field left behind, then the shared legalizer
	// takes over.
	busy += spread(movable, pos, bins, rng, workers, ts, mt)
	gsp.End()

	res := &Result{}
	for _, inst := range movable {
		inst.Loc = geom.Pt(pos[inst.ID].X-inst.Master.Width/2, pos[inst.ID].Y-inst.Master.Height/2)
		inst.Placed = true
	}
	res.GlobalHPWL = d.TotalHPWL()
	res.Overflow = bins.overflow(movable, pos)

	lsp := opt.Obs.Child("legalize")
	disp, maxDisp, err := legalizeN(movable, fp, rowHeight, workers, ts, mt)
	lsp.End()
	if err != nil {
		return nil, err
	}
	res.Displacement = disp
	res.MaxDisp = maxDisp
	res.HPWL = d.TotalHPWL()
	if reg := opt.Obs.Reg(); reg != nil {
		reg.Counter("place_legalized_cells_total",
			"Movable standard cells legalized into rows.").Add(uint64(len(movable)))
		reg.Gauge("place_legalize_displacement_mean_um",
			"Mean legalization displacement of the latest placement, um.").Set(disp)
		reg.Gauge("place_legalize_displacement_max_um",
			"Max legalization displacement of the latest placement, um.").Set(maxDisp)
		reg.Gauge("place_density_overflow_ratio",
			"Residual density overflow fraction after spreading.").Set(res.Overflow)
		reg.Gauge("place_hpwl_um",
			"Half-perimeter wirelength after legalization, um.").Set(res.HPWL)
		reg.Gauge("place_analytic_best_hpwl_um",
			"Best pre-legalization HPWL snapshot of the analytic engine, um.").Set(bestHP)
		reg.Gauge("place_workers",
			"Worker goroutines used by the parallel placement engine.").Set(float64(workers))
		if wall := time.Since(t0).Seconds(); wall > 0 && workers > 1 {
			reg.Gauge("place_worker_utilization_ratio",
				"Summed worker busy time over workers × stage wall time, latest run.").
				Set(busy.Seconds() / (wall * float64(workers)))
		}
	}
	return res, nil
}

// analyticState holds the per-iteration scratch arrays so the descent
// loop allocates nothing.
type analyticState struct {
	// Per-net WA aggregates, one slot per net (disjoint writes).
	agg []netAgg
	// Die-aware net weights: Net.Weight × bump multiplier.
	wnet []float64
	// Per-cell gradient accumulators (disjoint writes).
	wgx, wgy []float64 // wirelength
	dgx, dgy []float64 // density
	// Per-net exact-HPWL scratch.
	hp []float64

	bins *binGrid
	pois *poissonGrid
	// binOf / counting-sort scratch for the density accumulation.
	binOf []int32
	cnt   [][]int32
	off   [][]int32
	base  []int32
	area  []float64 // per-movable cell area, cached
}

// netAgg is one net's frozen WA aggregates for one iteration: the
// shifted exponential sums the per-cell gradient pass reads.
type netAgg struct {
	xmax, xmin, ymax, ymin float64
	ax, axx, bx, bxx       float64 // x: Σe, Σx·e (max side); Σe, Σx·e (min side)
	ay, ayy, by, byy       float64
	deg                    float64
}

func newAnalyticState(d *netlist.Design, movable []*netlist.Instance, bins *binGrid, workers int) *analyticState {
	st := &analyticState{
		agg:  make([]netAgg, len(d.Nets)),
		wnet: make([]float64, len(d.Nets)),
		wgx:  make([]float64, len(d.Instances)),
		wgy:  make([]float64, len(d.Instances)),
		dgx:  make([]float64, len(d.Instances)),
		dgy:  make([]float64, len(d.Instances)),
		hp:   make([]float64, len(d.Nets)),
		bins: bins,
		pois: newPoissonGrid(bins.grid),
		binOf: make([]int32, len(movable)),
		cnt:   make([][]int32, workers),
		off:   make([][]int32, workers),
		base:  make([]int32, bins.grid.Bins()+1),
		area:  make([]float64, len(movable)),
	}
	for k, inst := range movable {
		st.area[k] = inst.Master.Area()
	}
	return st
}

// netWeights computes the die-aware WA weight of every net once. A net
// whose pins touch both `_MD` macro-die layers and base-die layers
// crosses an F2F bump; its wirelength is priced up so the descent
// shortens bump-crossing spans first.
func (st *analyticState) netWeights(d *netlist.Design, workers int, ts trSet) time.Duration {
	return par.ChunksTr(ts, "place/net-weight", workers, len(d.Nets), func(w, lo, hi int) {
		for _, n := range d.Nets[lo:hi] {
			wt := n.Weight
			hasMD, hasBase := false, false
			for _, p := range n.Pins() {
				layer := ""
				if p.Port != nil {
					layer = p.Port.Layer
				} else if pin := p.Inst.Master.Pin(p.Pin); pin != nil {
					layer = pin.Layer
				}
				if layer == "" {
					continue
				}
				if strings.HasSuffix(layer, tech.MDSuffix) {
					hasMD = true
				} else {
					hasBase = true
				}
			}
			if hasMD && hasBase {
				wt *= analyticBumpWeight
			}
			st.wnet[n.ID] = wt
		}
	})
}

// pinCoord returns the placement coordinate a pin contributes: the
// frozen anchor location for ports and fixed macros, the current cell
// centre for movable cells (pin offsets fold into the anchor model the
// same way solve() treats them).
func pinCoord(p netlist.PinRef, pos []geom.Point) geom.Point {
	if p.Port != nil {
		return p.Port.Loc
	}
	if p.Inst.Fixed {
		return p.Loc()
	}
	return pos[p.Inst.ID]
}

// wlGradient runs the two WA phases: per-net aggregates (parallel over
// nets, each writing only its slot while pos is frozen), then per-cell
// gradients (parallel over cells, each writing only its slot while the
// aggregates are frozen) — the same disjoint-write pattern as solve().
func (st *analyticState) wlGradient(d *netlist.Design, movable []*netlist.Instance,
	adj [][]*netlist.Net, pos []geom.Point, gamma float64, workers int, ts trSet) time.Duration {

	busy := par.ChunksTr(ts, "place/wa-net", workers, len(d.Nets), func(w, lo, hi int) {
		for _, n := range d.Nets[lo:hi] {
			a := &st.agg[n.ID]
			*a = netAgg{}
			if n.Clock {
				continue
			}
			pins := n.Pins()
			a.deg = float64(len(pins))
			if len(pins) < 2 {
				continue
			}
			a.xmax, a.xmin = math.Inf(-1), math.Inf(1)
			a.ymax, a.ymin = math.Inf(-1), math.Inf(1)
			for _, p := range pins {
				c := pinCoord(p, pos)
				a.xmax, a.xmin = math.Max(a.xmax, c.X), math.Min(a.xmin, c.X)
				a.ymax, a.ymin = math.Max(a.ymax, c.Y), math.Min(a.ymin, c.Y)
			}
			for _, p := range pins {
				c := pinCoord(p, pos)
				ex := math.Exp((c.X - a.xmax) / gamma)
				a.ax += ex
				a.axx += c.X * ex
				ex = math.Exp((a.xmin - c.X) / gamma)
				a.bx += ex
				a.bxx += c.X * ex
				ey := math.Exp((c.Y - a.ymax) / gamma)
				a.ay += ey
				a.ayy += c.Y * ey
				ey = math.Exp((a.ymin - c.Y) / gamma)
				a.by += ey
				a.byy += c.Y * ey
			}
		}
	})
	busy += par.ChunksTr(ts, "place/wa-cell", workers, len(movable), func(w, lo, hi int) {
		for _, inst := range movable[lo:hi] {
			var gx, gy float64
			c := pos[inst.ID]
			for _, n := range adj[inst.ID] {
				a := &st.agg[n.ID]
				if n.Clock || a.deg < 2 {
					continue
				}
				wt := st.wnet[n.ID]
				gx += wt * waGrad(c.X, a.xmax, a.xmin, a.ax, a.axx, a.bx, a.bxx, gamma)
				gy += wt * waGrad(c.Y, a.ymax, a.ymin, a.ay, a.ayy, a.by, a.byy, gamma)
			}
			st.wgx[inst.ID] = gx
			st.wgy[inst.ID] = gy
		}
	})
	return busy
}

// waGrad is the derivative of the WA span estimate (x_max^WA − x_min^WA)
// with respect to one pin coordinate x:
//
//	∂/∂x [Σxᵢaᵢ/Σaᵢ] = (a/A)(1 + (x − f)/γ),  aᵢ = e^{xᵢ/γ}, f = Σxᵢaᵢ/Σaᵢ
//
// and symmetrically −(b/B)(1 − (x − g)/γ) for the min side with
// bᵢ = e^{−xᵢ/γ}. The exponentials are max-shifted for stability; the
// shift cancels in every ratio.
func waGrad(x, xmax, xmin, A, AX, B, BX, gamma float64) float64 {
	g := 0.0
	if A > 0 {
		a := math.Exp((x - xmax) / gamma)
		f := AX / A
		g += (a / A) * (1 + (x-f)/gamma)
	}
	if B > 0 {
		b := math.Exp((xmin - x) / gamma)
		m := BX / B
		g -= (b / B) * (1 - (x-m)/gamma)
	}
	return g
}

// density rebuilds the bin charge field from current positions with the
// counting-sort accumulation (per-chunk counts → serial prefix →
// scatter → per-bin sums in movable order — bit-identical at any
// worker count), then refreshes the Poisson potential.
func (st *analyticState) density(movable []*netlist.Instance, pos []geom.Point, workers int, ts trSet) time.Duration {
	g := st.bins.grid
	nb := g.Bins()
	busy := par.ChunksTr(ts, "place/charge-index", workers, len(movable), func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			ix, iy := g.Locate(pos[movable[k].ID])
			st.binOf[k] = int32(g.Index(ix, iy))
		}
	})
	busy += par.ChunksTr(ts, "place/charge-count", workers, len(movable), func(w, lo, hi int) {
		c := st.cnt[w]
		if c == nil {
			c = make([]int32, nb)
			st.cnt[w] = c
		}
		for i := range c {
			c[i] = 0
		}
		for k := lo; k < hi; k++ {
			c[st.binOf[k]]++
		}
	})
	base := st.base
	for i := range base {
		base[i] = 0
	}
	for w := 0; w < workers; w++ {
		c := st.cnt[w]
		if c == nil {
			continue
		}
		for i, n := range c {
			base[i+1] += n
		}
	}
	for i := 0; i < nb; i++ {
		base[i+1] += base[i]
	}
	cursor := make([]int32, nb)
	copy(cursor, base[:nb])
	for w := 0; w < workers; w++ {
		c := st.cnt[w]
		if c == nil {
			continue
		}
		o := st.off[w]
		if o == nil {
			o = make([]int32, nb)
			st.off[w] = o
		}
		copy(o, cursor)
		for i, n := range c {
			cursor[i] += n
		}
	}
	// Scatter movable indices to their stable per-bin ranks; per-bin
	// charge then sums members in movable order.
	flat := st.pois.flat
	if len(flat) < len(movable) {
		flat = make([]int32, len(movable))
		st.pois.flat = flat
	}
	busy += par.ChunksTr(ts, "place/charge-scatter", workers, len(movable), func(w, lo, hi int) {
		o := st.off[w]
		for k := lo; k < hi; k++ {
			i := st.binOf[k]
			flat[o[i]] = int32(k)
			o[i]++
		}
	})
	rho := st.pois.rho
	busy += par.ChunksTr(ts, "place/charge-sum", workers, nb, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			var u float64
			for _, k := range flat[base[i]:base[i+1]] {
				u += st.area[k]
			}
			// Signed charge: cell area above capacity repels, free
			// capacity attracts.
			rho[i] = u - st.bins.cap[i]
		}
	})
	// Neumann boundaries make the Poisson problem singular unless the
	// net charge is zero; remove the mean (serial, fixed bin order).
	var mean float64
	for _, r := range rho {
		mean += r
	}
	mean /= float64(nb)
	busy += par.ChunksTr(ts, "place/charge-center", workers, nb, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			rho[i] -= mean
		}
	})
	busy += st.pois.solve(workers, ts)
	return busy
}

// densGradient evaluates the potential slope at every movable cell:
// ∂N/∂x = q·∂φ/∂x by central difference on the bin the cell sits in.
func (st *analyticState) densGradient(movable []*netlist.Instance, pos []geom.Point, workers int, ts trSet) time.Duration {
	g := st.bins.grid
	phi := st.pois.phi
	return par.ChunksTr(ts, "place/field", workers, len(movable), func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			inst := movable[k]
			ix, iy := g.Locate(pos[inst.ID])
			xl, xr := maxInt(ix-1, 0), minInt(ix+1, g.NX-1)
			yl, yr := maxInt(iy-1, 0), minInt(iy+1, g.NY-1)
			var ddx, ddy float64
			if xr > xl {
				ddx = (phi[g.Index(xr, iy)] - phi[g.Index(xl, iy)]) / (float64(xr-xl) * g.DX)
			}
			if yr > yl {
				ddy = (phi[g.Index(ix, yr)] - phi[g.Index(ix, yl)]) / (float64(yr-yl) * g.DY)
			}
			st.dgx[inst.ID] = st.area[k] * ddx
			st.dgy[inst.ID] = st.area[k] * ddy
		}
	})
}

// gradMaxima returns the ∞-norms of the wirelength and density gradient
// fields. Max combines exactly regardless of chunking, so the result is
// identical at any worker count.
func (st *analyticState) gradMaxima(workers int) (wlMax, denMax float64) {
	for i := range st.wgx {
		wlMax = math.Max(wlMax, math.Max(math.Abs(st.wgx[i]), math.Abs(st.wgy[i])))
		denMax = math.Max(denMax, math.Max(math.Abs(st.dgx[i]), math.Abs(st.dgy[i])))
	}
	return
}

// descend takes one normalized gradient step: the combined gradient is
// scaled so the largest cell move equals step µm, then every movable
// cell updates its own position (disjoint writes).
func (st *analyticState) descend(movable []*netlist.Instance, pos []geom.Point,
	die geom.Rect, lambda, step float64, workers int, ts trSet) time.Duration {

	var gmax float64
	for _, inst := range movable {
		id := inst.ID
		gx := st.wgx[id] + lambda*st.dgx[id]
		gy := st.wgy[id] + lambda*st.dgy[id]
		gmax = math.Max(gmax, math.Max(math.Abs(gx), math.Abs(gy)))
	}
	if gmax == 0 {
		return 0
	}
	lr := step / gmax
	inner := die.Expand(-1)
	return par.ChunksTr(ts, "place/descend", workers, len(movable), func(w, lo, hi int) {
		for _, inst := range movable[lo:hi] {
			id := inst.ID
			p := geom.Pt(
				pos[id].X-lr*(st.wgx[id]+lambda*st.dgx[id]),
				pos[id].Y-lr*(st.wgy[id]+lambda*st.dgy[id]),
			)
			pos[id] = inner.ClampPoint(p)
		}
	})
}

// exactHPWL computes the true (non-smoothed) weighted HPWL of the
// iterate: per-net bounding boxes in parallel (disjoint slots), then a
// serial sum in net order.
func (st *analyticState) exactHPWL(d *netlist.Design, pos []geom.Point, workers int, ts trSet) float64 {
	par.ChunksTr(ts, "place/hpwl", workers, len(d.Nets), func(w, lo, hi int) {
		for _, n := range d.Nets[lo:hi] {
			pins := n.Pins()
			if len(pins) < 2 {
				st.hp[n.ID] = 0
				continue
			}
			xmax, xmin := math.Inf(-1), math.Inf(1)
			ymax, ymin := math.Inf(-1), math.Inf(1)
			for _, p := range pins {
				c := pinCoord(p, pos)
				xmax, xmin = math.Max(xmax, c.X), math.Min(xmin, c.X)
				ymax, ymin = math.Max(ymax, c.Y), math.Min(ymin, c.Y)
			}
			st.hp[n.ID] = st.wnet[n.ID] * ((xmax - xmin) + (ymax - ymin))
		}
	})
	var sum float64
	for _, h := range st.hp {
		sum += h
	}
	return sum
}

// poissonGrid solves ∇²φ = −ρ over the bin grid with Neumann (mirror)
// boundaries by damped Jacobi relaxation on a two-level multigrid: the
// charge restricts to a half-resolution grid that relaxes first, its
// potential prolongates down as the fine grid's initial guess, and a
// few fine sweeps finish. φ persists across outer placement iterations
// as a warm start. Every sweep is a ping-pong between two buffers —
// disjoint writes over frozen reads — so the relaxation is bit-identical
// at any worker count.
type poissonGrid struct {
	nx, ny   int
	cnx, cny int
	phi, tmp []float64
	crho     []float64
	cphi     []float64
	ctmp     []float64
	rho      []float64
	flat     []int32 // charge-scatter scratch, sized on demand
}

func newPoissonGrid(g geom.Grid) *poissonGrid {
	cnx, cny := (g.NX+1)/2, (g.NY+1)/2
	return &poissonGrid{
		nx: g.NX, ny: g.NY, cnx: cnx, cny: cny,
		phi:  make([]float64, g.Bins()),
		tmp:  make([]float64, g.Bins()),
		crho: make([]float64, cnx*cny),
		cphi: make([]float64, cnx*cny),
		ctmp: make([]float64, cnx*cny),
		rho:  make([]float64, g.Bins()),
	}
}

func (p *poissonGrid) solve(workers int, ts trSet) time.Duration {
	// Restrict charge: each coarse bin averages its ≤2×2 fine bins.
	busy := par.ChunksTr(ts, "place/poisson-restrict", workers, p.cnx*p.cny, func(w, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			cx, cy := ci%p.cnx, ci/p.cnx
			var s float64
			var n int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					x, y := 2*cx+dx, 2*cy+dy
					if x < p.nx && y < p.ny {
						s += p.rho[y*p.nx+x]
						n++
					}
				}
			}
			p.crho[ci] = s / float64(n)
		}
	})
	busy += relaxJacobi(p.cphi, p.ctmp, p.crho, p.cnx, p.cny, 4, analyticCoarseRelax, workers, ts)
	// Prolongate: inject each coarse potential into its fine bins as
	// the warm start the fine sweeps smooth.
	busy += par.ChunksTr(ts, "place/poisson-prolong", workers, p.nx*p.ny, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := i%p.nx, i/p.nx
			p.phi[i] = p.cphi[(y/2)*p.cnx+(x/2)]
		}
	})
	busy += relaxJacobi(p.phi, p.tmp, p.rho, p.nx, p.ny, 1, analyticFineRelax, workers, ts)
	return busy
}

// relaxJacobi runs an even number of Jacobi sweeps of
// φ' = ¼(φ_W + φ_E + φ_S + φ_N + h²ρ) with mirrored boundaries,
// ping-ponging between phi and tmp so the result lands back in phi.
func relaxJacobi(phi, tmp, rho []float64, nx, ny int, h2 float64, iters, workers int, ts trSet) time.Duration {
	var busy time.Duration
	src, dst := phi, tmp
	for it := 0; it < iters; it++ {
		s, d := src, dst
		busy += par.ChunksTr(ts, "place/poisson-relax", workers, nx*ny, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				x, y := i%nx, i/nx
				xl, xr := maxInt(x-1, 0), minInt(x+1, nx-1)
				yl, yr := maxInt(y-1, 0), minInt(y+1, ny-1)
				d[i] = 0.25 * (s[y*nx+xl] + s[y*nx+xr] + s[yl*nx+x] + s[yr*nx+x] + h2*rho[i])
			}
		})
		src, dst = dst, src
	}
	if iters%2 == 1 {
		copy(phi, src)
	}
	return busy
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
