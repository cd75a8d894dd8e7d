package route

import (
	"testing"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/tech"
)

// placedSmallTile generates, floorplans and places the small-cache
// piton tile — the shared fixture of the worker-determinism test.
func placedSmallTile(t *testing.T) (*netlist.Design, geom.Rect, []floorplan.RouteBlockage) {
	t.Helper()
	tile, err := piton.Generate(piton.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		t.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)
	if _, err := place.Place(d, fp, 1.2, place.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return d, sz.Die2D, fp.RouteBlk
}

// TestRouteWorkerDeterminism pins the router's worker contract:
// routing the same placed tile with everything inline (Workers 1),
// forced parallel net prep and overflow scans (Workers 4) and the
// default (Workers 0) produces byte-identical results — every usage
// counter, every segment of every net, every aggregate.
func TestRouteWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("tile routing in -short mode")
	}
	d, die, blk := placedSmallTile(t)
	b6, _ := tech.NewBEOL28("logic", 6)

	type run struct {
		workers int
		db      *DB
		res     *Result
	}
	var runs []run
	for _, w := range []int{1, 4, 0} {
		db := NewDB(die, b6, blk, Options{Workers: w})
		res, err := RouteDesign(d, db)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		runs = append(runs, run{w, db, res})
	}

	ref := runs[0]
	for _, r := range runs[1:] {
		if r.res.WL != ref.res.WL || r.res.Vias != ref.res.Vias ||
			r.res.F2FBumps != ref.res.F2FBumps || r.res.Overflow != ref.res.Overflow {
			t.Fatalf("workers=%d aggregates diverged: WL %v/%v vias %d/%d f2f %d/%d overflow %d/%d",
				r.workers, r.res.WL, ref.res.WL, r.res.Vias, ref.res.Vias,
				r.res.F2FBumps, ref.res.F2FBumps, r.res.Overflow, ref.res.Overflow)
		}
		for l, wl := range ref.res.WLPerLayer {
			if r.res.WLPerLayer[l] != wl {
				t.Fatalf("workers=%d layer %d WL %v, serial %v", r.workers, l, r.res.WLPerLayer[l], wl)
			}
		}
		for i := range ref.db.usage {
			if r.db.usage[i] != ref.db.usage[i] {
				t.Fatalf("workers=%d usage[%d] = %d, serial %d", r.workers, i, r.db.usage[i], ref.db.usage[i])
			}
		}
		for i := range ref.db.f2fUse {
			if r.db.f2fUse[i] != ref.db.f2fUse[i] {
				t.Fatalf("workers=%d f2fUse[%d] = %d, serial %d", r.workers, i, r.db.f2fUse[i], ref.db.f2fUse[i])
			}
		}
		for id, rr := range ref.res.Routes {
			pr := r.res.Routes[id]
			if (rr == nil) != (pr == nil) {
				t.Fatalf("workers=%d net %d presence diverged", r.workers, id)
			}
			if rr == nil {
				continue
			}
			if len(pr.Segments) != len(rr.Segments) {
				t.Fatalf("workers=%d net %d has %d segments, serial %d",
					r.workers, id, len(pr.Segments), len(rr.Segments))
			}
			for si := range rr.Segments {
				if pr.Segments[si] != rr.Segments[si] {
					t.Fatalf("workers=%d net %d segment %d = %v, serial %v",
						r.workers, id, si, pr.Segments[si], rr.Segments[si])
				}
			}
		}
	}
}

// TestMazeAllocs bounds the steady-state allocation count of one
// two-pin maze connection. The pre-window implementation allocated
// whole-grid dist/prev arrays plus one boxed container/heap item per
// push — hundreds of allocations per connection. With the reusable
// scratch only the returned segment slice survives.
func TestMazeAllocs(t *testing.T) {
	db := db6(t, geom.R(0, 0, 200, 200), nil)
	a, b := Node{0, 0, 0}, Node{10, 10, 3}
	if _, err := db.mazeRoute(a, b); err != nil {
		t.Fatal(err) // warm-up sizes the scratch
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.mazeRoute(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("maze route allocates %.0f objects per connection, want ≤ 10", allocs)
	}
}

// TestScratchReuse verifies the scratch actually gets reused: the
// first search grows the backing arrays (a miss), repeats over the
// same window are served from the existing allocation (hits).
func TestScratchReuse(t *testing.T) {
	db := db6(t, geom.R(0, 0, 200, 200), nil)
	a, b := Node{0, 0, 0}, Node{10, 10, 3}
	for i := 0; i < 3; i++ {
		if _, err := db.mazeRoute(a, b); err != nil {
			t.Fatal(err)
		}
	}
	s := db.scratch()
	if s.misses == 0 {
		t.Fatal("first search should have grown the scratch (miss)")
	}
	if s.hits < 2 {
		t.Fatalf("repeat searches should reuse the scratch: hits = %d", s.hits)
	}
}
