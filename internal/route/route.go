// Package route implements global routing over a gcell grid spanning
// an arbitrary BEOL — including the 10–13-layer combined stacks of
// Macro-3D designs. Nets are decomposed into two-pin connections by a
// rectilinear MST, routed with congestion-aware pattern routes
// (L-shapes over an H/V layer pair), and negotiated with
// PathFinder-style rip-up-and-reroute using 3D A* for overflowed nets.
//
// The router honours preferred directions, per-layer track capacities,
// macro obstructions (which is what forces ≥6 metal layers over
// memories in 2D designs), and the F2F bonding via: crossing the F2F
// boundary consumes bump capacity on the bump grid, and every crossing
// is counted — the paper's F2F-bump cost metric.
package route

import (
	"fmt"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/tech"
)

// Options tunes the router.
type Options struct {
	// GCellPitch is the routing grid pitch, µm (default 15).
	GCellPitch float64
	// MaxIters is the number of negotiation iterations (default 6).
	MaxIters int
	// CapacityFill derates raw track capacity (default 0.65 — tracks
	// lost to pins, power and detailed-routing inefficiency).
	CapacityFill float64
	// ViaCost is the routing cost of one via step, in gcell-lengths
	// (default 1.0).
	ViaCost float64
	// Grid, when non-nil, overrides the gcell grid (it must tile the
	// die exactly). Used when composing tile arrays so routes can be
	// translated between aligned grids.
	Grid *geom.Grid
	// Workers sets the worker count of routing's parallel net prep and
	// overflowed-net scan: 0 (default) uses every CPU (GOMAXPROCS), 1
	// runs them inline. The routing waves themselves are serial, so
	// results are bit-identical at any setting.
	Workers int

	// Obs, when non-nil, is the stage span the router hangs its
	// rip-up-iteration phase spans under and whose registry receives
	// the routing metrics. nil disables instrumentation.
	Obs *obs.Span

	// Trace, when non-nil, receives task-level execution slices —
	// prep fan-outs, serial routing passes, rip-up iterations — on
	// per-worker tracks. nil disables tracing at the cost of one
	// pointer comparison per call site; routing results are identical
	// either way.
	Trace *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.GCellPitch <= 0 {
		o.GCellPitch = 15
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 6
	}
	if o.CapacityFill <= 0 {
		o.CapacityFill = 0.65
	}
	if o.ViaCost <= 0 {
		o.ViaCost = 1.0
	}
	return o
}

// Node is a point on the routing grid: gcell (X, Y) on layer L.
type Node struct {
	X, Y int
	L    int
}

// Seg is one straight route element on a single layer (A.L == B.L) or
// a via (A.X==B.X, A.Y==B.Y, |A.L−B.L|==1).
type Seg struct {
	A, B Node
}

// IsVia reports whether the segment is a layer change.
func (s Seg) IsVia() bool { return s.A.L != s.B.L }

// NetRoute is the routing result of one net.
type NetRoute struct {
	Net      *netlist.Net
	Segments []Seg
	// PinNode maps pin index (net.Pins() order) to its grid node at
	// the pin's layer.
	PinNode []Node

	WL   float64 // routed wirelength, µm
	Vias int
	F2F  int // F2F bump crossings
}

// Result is the design-level routing outcome.
type Result struct {
	Routes []*NetRoute // indexed by net ID (nil for clock/unrouted)

	WL         float64   // total routed wirelength, µm
	WLPerLayer []float64 // µm per layer
	Vias       int
	F2FBumps   int
	Overflow   int // gcell-layers above capacity after negotiation
	OverflowWL float64
}

// DB is the routing database: capacities and usage per gcell per layer.
type DB struct {
	Grid geom.Grid
	Beol *tech.BEOL
	opt  Options

	layerIdx map[string]int

	cap   []int32 // per layer*bins, tracks available
	usage []int32
	hist  []float32 // negotiation history cost

	f2fIdx  int // via index of the F2F boundary, -1 if none
	f2fCap  []int32
	f2fUse  []int32
	gcellWL float64 // µm per grid step (average of DX, DY)

	scr *mazeScratch // maze scratch shared by every search on this DB
}

// NewDB builds the routing database for a die, BEOL and blockage set.
func NewDB(die geom.Rect, beol *tech.BEOL, blk []floorplan.RouteBlockage, opt Options) *DB {
	opt = opt.withDefaults()
	g := geom.NewGrid(die, opt.GCellPitch)
	if opt.Grid != nil {
		g = *opt.Grid
	}
	nl := beol.NumLayers()
	db := &DB{
		Grid:     g,
		Beol:     beol,
		opt:      opt,
		layerIdx: make(map[string]int, nl),
		cap:      make([]int32, nl*g.Bins()),
		usage:    make([]int32, nl*g.Bins()),
		hist:     make([]float32, nl*g.Bins()),
		f2fIdx:   beol.F2FViaIndex(),
		gcellWL:  (g.DX + g.DY) / 2,
	}
	for i, l := range beol.Layers {
		db.layerIdx[l.Name] = i
		// Tracks crossing a gcell in the preferred direction.
		span := g.DY
		if l.Dir == tech.DirVertical {
			span = g.DX
		}
		tracks := int32(span / l.Pitch * opt.CapacityFill)
		if tracks < 1 {
			tracks = 1
		}
		base := i * g.Bins()
		for b := 0; b < g.Bins(); b++ {
			db.cap[base+b] = tracks
		}
	}
	// Obstructions knock capacity out.
	for _, rb := range blk {
		li, ok := db.layerIdx[rb.Layer]
		if !ok {
			continue
		}
		x0, y0, x1, y1, ok := g.CoverRange(rb.Rect)
		if !ok {
			continue
		}
		base := li * g.Bins()
		for iy := y0; iy <= y1; iy++ {
			for ix := x0; ix <= x1; ix++ {
				bin := g.BinRect(ix, iy)
				frac := rb.Rect.Intersect(bin).Area() / bin.Area()
				i := base + g.Index(ix, iy)
				left := float64(db.cap[i]) * (1 - frac)
				db.cap[i] = int32(left)
			}
		}
	}
	// F2F bump capacity per gcell from the bump pitch.
	if db.f2fIdx >= 0 {
		p := beol.Vias[db.f2fIdx].Pitch
		per := int32(g.DX / p * g.DY / p * 0.5)
		if per < 1 {
			per = 1
		}
		db.f2fCap = make([]int32, g.Bins())
		db.f2fUse = make([]int32, g.Bins())
		for b := range db.f2fCap {
			db.f2fCap[b] = per
		}
	}
	return db
}

func (db *DB) idx(n Node) int { return n.L*db.Grid.Bins() + db.Grid.Index(n.X, n.Y) }

// LayerIndex resolves a layer name (-1 when absent).
func (db *DB) LayerIndex(name string) int {
	if i, ok := db.layerIdx[name]; ok {
		return i
	}
	return -1
}

// congestionCost is the PathFinder-style cost of using one more track
// in a gcell-layer.
func (db *DB) congestionCost(i int) float64 {
	c := float64(db.cap[i])
	if c <= 0 {
		return 64 + float64(db.hist[i])
	}
	u := float64(db.usage[i])
	over := (u + 1) / c
	if over <= 0.8 {
		return float64(db.hist[i]) * 0.1
	}
	// Quadratic penalty past 80 % fill, steep past capacity.
	pen := (over - 0.8) * (over - 0.8) * 8
	if u+1 > c {
		pen += 16
	}
	return pen + float64(db.hist[i])
}

// addUsage commits or releases (delta ±1) a route's occupancy.
func (db *DB) addUsage(r *NetRoute, delta int32) {
	for _, s := range r.Segments {
		if s.IsVia() {
			lo := s.A.L
			if s.B.L < lo {
				lo = s.B.L
			}
			if db.f2fIdx >= 0 && lo == db.f2fIdx {
				db.f2fUse[db.Grid.Index(s.A.X, s.A.Y)] += delta
			}
			continue
		}
		// Walk the gcells under the straight segment.
		forEachStep(s, func(n Node) {
			db.usage[db.idx(n)] += delta
		})
	}
}

// forEachStep visits every gcell of a straight segment, inclusive of
// both ends.
func forEachStep(s Seg, f func(Node)) {
	dx := sign(s.B.X - s.A.X)
	dy := sign(s.B.Y - s.A.Y)
	n := s.A
	for {
		f(n)
		if n.X == s.B.X && n.Y == s.B.Y {
			return
		}
		n.X += dx
		n.Y += dy
	}
}

func sign(v int) int {
	if v > 0 {
		return 1
	}
	if v < 0 {
		return -1
	}
	return 0
}

// segLen returns the µm length of a straight segment.
func (db *DB) segLen(s Seg) float64 {
	return float64(geom.AbsInt(s.B.X-s.A.X))*db.Grid.DX +
		float64(geom.AbsInt(s.B.Y-s.A.Y))*db.Grid.DY
}

// PinNode maps a pin reference to its routing-grid node.
func (db *DB) PinNode(p netlist.PinRef) (Node, error) {
	li := db.LayerIndex(p.Layer())
	if li < 0 {
		return Node{}, fmt.Errorf("route: pin %s on unknown layer %q", p, p.Layer())
	}
	ix, iy := db.Grid.Locate(p.Loc())
	return Node{X: ix, Y: iy, L: li}, nil
}

// hvPairs enumerates (H-layer, V-layer) adjacent pairs usable by the
// pattern router, lowest first.
func (db *DB) hvPairs() [][2]int {
	var out [][2]int
	ls := db.Beol.Layers
	for i := 0; i+1 < len(ls); i++ {
		a, b := i, i+1
		if ls[a].Dir == tech.DirHorizontal && ls[b].Dir == tech.DirVertical {
			out = append(out, [2]int{a, b})
		} else if ls[a].Dir == tech.DirVertical && ls[b].Dir == tech.DirHorizontal {
			out = append(out, [2]int{b, a})
		}
	}
	return out
}

// Overflow recomputes the current overflow (gcell-layers over
// capacity).
func (db *DB) Overflow() int {
	over := 0
	for i := range db.usage {
		if db.usage[i] > db.cap[i] {
			over++
		}
	}
	if db.f2fCap != nil {
		for i := range db.f2fUse {
			if db.f2fUse[i] > db.f2fCap[i] {
				over++
			}
		}
	}
	return over
}

// bumpHistory raises history cost on currently overflowed nodes.
func (db *DB) bumpHistory() {
	for i := range db.usage {
		if db.usage[i] > db.cap[i] {
			db.hist[i] += 2
		}
	}
}

// UsedObstructions condenses the committed routing into per-layer
// blockage rectangles: every gcell with nonzero usage (or with its
// capacity fully knocked out by an input obstruction) is covered.
// Per row, consecutive used gcells merge into runs; vertically
// identical runs merge into taller rects. This is what hardening a
// block exports as the abstract's routing obstructions — a parent flow
// then blocks only the layers and regions the block really uses,
// instead of treating it as an opaque full-stack blockage. Output
// order is deterministic (layer index, then scan order).
func (db *DB) UsedObstructions() []floorplan.RouteBlockage {
	type run struct {
		x0, x1, y0, y1 int
	}
	var out []floorplan.RouteBlockage
	g := db.Grid
	for l := 0; l < db.Beol.NumLayers(); l++ {
		base := l * g.Bins()
		used := func(ix, iy int) bool {
			i := base + g.Index(ix, iy)
			return db.usage[i] > 0 || db.cap[i] == 0
		}
		var open []run // runs still growing upward, sorted by x0
		for iy := 0; iy < g.NY; iy++ {
			var rows []run
			for ix := 0; ix < g.NX; ix++ {
				if !used(ix, iy) {
					continue
				}
				x1 := ix
				for x1+1 < g.NX && used(x1+1, iy) {
					x1++
				}
				rows = append(rows, run{x0: ix, x1: x1, y0: iy, y1: iy})
				ix = x1
			}
			// Extend an open run only by an identical row run; emit the
			// rest.
			var next []run
			for _, o := range open {
				ext := false
				for i := range rows {
					if rows[i].x0 == o.x0 && rows[i].x1 == o.x1 && rows[i].y0 == o.y1+1 {
						o.y1 = rows[i].y0
						rows[i].x1 = -1 // consumed
						next = append(next, o)
						ext = true
						break
					}
				}
				if !ext {
					out = append(out, db.runBlockage(l, o.x0, o.y0, o.x1, o.y1))
				}
			}
			for _, r := range rows {
				if r.x1 >= 0 {
					next = append(next, r)
				}
			}
			open = next
		}
		for _, o := range open {
			out = append(out, db.runBlockage(l, o.x0, o.y0, o.x1, o.y1))
		}
	}
	return out
}

func (db *DB) runBlockage(l, x0, y0, x1, y1 int) floorplan.RouteBlockage {
	a := db.Grid.BinRect(x0, y0)
	b := db.Grid.BinRect(x1, y1)
	return floorplan.RouteBlockage{
		Layer: db.Beol.Layers[l].Name,
		Rect:  a.Union(b),
	}
}

// UsageSnapshot returns a per-layer utilization summary (mean fill of
// used gcells) for reports.
func (db *DB) UsageSnapshot() []float64 {
	nl := db.Beol.NumLayers()
	out := make([]float64, nl)
	for l := 0; l < nl; l++ {
		var u, c float64
		base := l * db.Grid.Bins()
		for b := 0; b < db.Grid.Bins(); b++ {
			u += float64(db.usage[base+b])
			c += float64(db.cap[base+b])
		}
		if c > 0 {
			out[l] = u / c
		}
	}
	return out
}
