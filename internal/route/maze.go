package route

import (
	"fmt"

	"macro3d/internal/geom"
	"macro3d/internal/tech"
)

// --- windowed A* maze routing ---
//
// Maze search runs inside a bounding-box window around the two pins
// (expanded by mazeMargin gcells for detours) instead of the whole
// grid. That bounds both the work and — together with the reusable
// scratch below — the allocations: the historical implementation
// allocated whole-grid dist/prev arrays and a boxed container/heap
// item per push for every two-pin connection, which dominated
// negotiation time on the large tile.

// mazeMargin is the detour allowance around the two-pin bounding box,
// in gcells per side.
const mazeMargin = 16

// window is a clamped sub-volume of the routing grid with its own
// dense local indexing (layer-major, then rows).
type window struct {
	x0, y0, x1, y1 int // inclusive gcell bounds
	wx, wy, nl     int
}

func (w window) size() int { return w.nl * w.wx * w.wy }

func (w window) idx(n Node) int {
	return (n.L*w.wy+(n.Y-w.y0))*w.wx + (n.X - w.x0)
}

func (w window) node(i int) Node {
	x := i%w.wx + w.x0
	r := i / w.wx
	return Node{X: x, Y: r%w.wy + w.y0, L: r / w.wy}
}

// mazeWindow is the search window for a two-pin connection: the pin
// bounding box expanded by mazeMargin, clamped to the grid, over all
// layers.
func (db *DB) mazeWindow(a, b Node) window {
	g := db.Grid
	w := window{
		x0: max(0, min(a.X, b.X)-mazeMargin),
		y0: max(0, min(a.Y, b.Y)-mazeMargin),
		x1: min(g.NX-1, max(a.X, b.X)+mazeMargin),
		y1: min(g.NY-1, max(a.Y, b.Y)+mazeMargin),
		nl: db.Beol.NumLayers(),
	}
	w.wx = w.x1 - w.x0 + 1
	w.wy = w.y1 - w.y0 + 1
	return w
}

// mazeEntry is one open-list element of the typed priority queue —
// a plain value, no boxing, no per-push allocation. Stale entries
// (lazy deletion) are skipped on pop via the dist check.
type mazeEntry struct {
	idx  int32
	cost float64
	est  float64
}

// mazeScratch is the reusable state of the windowed A*: dist/prev
// backing arrays sized to the largest window seen so far, the typed
// binary heap, and the path-trace node buffer. Each DB keeps one
// (DB.scratch) and reuses it across every two-pin search, whose
// windows vary widely in size.
//
// Visited state is generation-stamped: a node's dist/prev entries are
// valid only when gen[i] matches the current search generation, so a
// reset never touches the backing arrays at all — it bumps one
// counter. The historical implementation re-filled dist with -1 on
// every search (O(window) per two-pin connection), which showed up as
// measurable reset time on large windows.
type mazeScratch struct {
	dist  []float64
	prev  []int32
	gen   []uint32 // dist/prev valid iff gen[i] == cur
	cur   uint32   // current search generation
	heap  []mazeEntry
	nodes []Node

	hits   uint64 // searches served by the existing backing arrays
	misses uint64 // searches that had to (re)grow the arrays
}

// reset prepares the scratch for a search over `size` window nodes:
// grow-only — the backing arrays reallocate only when the window
// exceeds every previous one, and an in-capacity reset is O(1) (a
// generation bump, no clearing).
func (s *mazeScratch) reset(size int) {
	if cap(s.dist) < size {
		s.dist = make([]float64, size)
		s.prev = make([]int32, size)
		s.gen = make([]uint32, size) // zeroed: nothing valid yet
		s.cur = 0
		s.misses++
	} else {
		s.hits++
	}
	s.dist = s.dist[:size]
	s.prev = s.prev[:size]
	s.gen = s.gen[:size]
	s.cur++
	if s.cur == 0 { // generation wrap: stale stamps could collide
		for i := range s.gen {
			s.gen[i] = 0
		}
		s.cur = 1
	}
	s.heap = s.heap[:0]
	s.nodes = s.nodes[:0]
}

// visited reports whether the node has a valid dist this generation.
func (s *mazeScratch) visited(i int) bool { return s.gen[i] == s.cur }

// visit records dist/prev for a node under the current generation.
func (s *mazeScratch) visit(i int, d float64, p int32) {
	s.dist[i] = d
	s.prev[i] = p
	s.gen[i] = s.cur
}

func (s *mazeScratch) push(e mazeEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].est <= s.heap[i].est {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *mazeScratch) pop() mazeEntry {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	h = s.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l].est < h[m].est {
			m = l
		}
		if r < len(h) && h[r].est < h[m].est {
			m = r
		}
		if m == i {
			return top
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// mazeRoute finds a least-cost path with windowed 3D A*, using the
// DB-resident scratch, starting a fresh segment list.
func (db *DB) mazeRoute(a, b Node) ([]Seg, error) {
	return db.mazeRouteScratch(db.scratch(), a, b, nil)
}

// scratch lazily builds the DB's maze scratch.
func (db *DB) scratch() *mazeScratch {
	if db.scr == nil {
		db.scr = &mazeScratch{}
	}
	return db.scr
}

// mazeRouteScratch runs A* from a to b inside the expanded pin-bbox
// window, appending the path segments to dst (which may be nil). All
// mutable search state lives in s; the congestion grid is only read.
func (db *DB) mazeRouteScratch(s *mazeScratch, a, b Node, dst []Seg) ([]Seg, error) {
	win := db.mazeWindow(a, b)
	size := win.size()
	s.reset(size)

	h := func(n Node) float64 {
		return float64(geom.AbsInt(n.X-b.X)+geom.AbsInt(n.Y-b.Y)) +
			float64(geom.AbsInt(n.L-b.L))*db.opt.ViaCost
	}
	start := win.idx(a)
	goal := int32(win.idx(b))
	s.visit(start, 0, -1)
	s.push(mazeEntry{idx: int32(start), cost: 0, est: h(a)})
	// Expansion budget keeps pathological cases bounded.
	budget := size * 2
	for len(s.heap) > 0 && budget > 0 {
		budget--
		it := s.pop()
		if it.cost > s.dist[it.idx] {
			continue
		}
		if it.idx == goal {
			return db.tracePath(s, win, a, b, dst), nil
		}
		n := win.node(int(it.idx))
		// Neighbors: preferred-direction steps and vias, all clamped
		// to the window.
		var neigh [4]Node
		var ncost [4]float64
		cnt := 0
		ly := db.Beol.Layers[n.L]
		if ly.Dir == tech.DirHorizontal {
			if n.X > win.x0 {
				neigh[cnt] = Node{n.X - 1, n.Y, n.L}
				cnt++
			}
			if n.X < win.x1 {
				neigh[cnt] = Node{n.X + 1, n.Y, n.L}
				cnt++
			}
		} else {
			if n.Y > win.y0 {
				neigh[cnt] = Node{n.X, n.Y - 1, n.L}
				cnt++
			}
			if n.Y < win.y1 {
				neigh[cnt] = Node{n.X, n.Y + 1, n.L}
				cnt++
			}
		}
		wireN := cnt
		if n.L > 0 {
			neigh[cnt] = Node{n.X, n.Y, n.L - 1}
			cnt++
		}
		if n.L < win.nl-1 {
			neigh[cnt] = Node{n.X, n.Y, n.L + 1}
			cnt++
		}
		for k := 0; k < cnt; k++ {
			m := neigh[k]
			if k < wireN {
				ncost[k] = 1 + db.congestionCost(db.idx(m))
			} else {
				ncost[k] = db.viaStackCost(n.X, n.Y, n.L, m.L)
			}
			mi := win.idx(m)
			nc := it.cost + ncost[k]
			if !s.visited(mi) || nc < s.dist[mi] {
				s.visit(mi, nc, it.idx)
				s.push(mazeEntry{idx: int32(mi), cost: nc, est: nc + h(m)})
			}
		}
	}
	return dst, fmt.Errorf("route: maze route %v→%v failed", a, b)
}

// tracePath reconstructs segments from the window-local predecessor
// array, merging consecutive steps in the same direction, and appends
// them to dst.
func (db *DB) tracePath(s *mazeScratch, win window, a, b Node, dst []Seg) []Seg {
	// Collect nodes b → a into the scratch buffer.
	s.nodes = s.nodes[:0]
	cur := int32(win.idx(b))
	for cur >= 0 {
		n := win.node(int(cur))
		s.nodes = append(s.nodes, n)
		if n == a {
			break
		}
		cur = s.prev[cur]
	}
	// Reverse to a → b.
	for i, j := 0, len(s.nodes)-1; i < j; i, j = i+1, j-1 {
		s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	}
	base := len(dst)
	for i := 1; i < len(s.nodes); i++ {
		p, n := s.nodes[i-1], s.nodes[i]
		if len(dst) > base {
			last := &dst[len(dst)-1]
			// Extend the last straight segment when collinear.
			if !last.IsVia() && !(Seg{p, n}).IsVia() &&
				((last.A.Y == last.B.Y && last.B.Y == n.Y && last.A.L == n.L) ||
					(last.A.X == last.B.X && last.B.X == n.X && last.A.L == n.L)) {
				last.B = n
				continue
			}
		}
		dst = append(dst, Seg{p, n})
	}
	return dst
}
