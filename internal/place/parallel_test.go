package place

import (
	"testing"

	"macro3d/internal/floorplan"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
)

// placedTileFixture builds the small piton tile floorplan the
// worker-equivalence test places.
func placedTileFixture(t *testing.T) (*netlist.Design, *floorplan.Floorplan) {
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
	return d, fp
}

// TestPlaceWorkerEquivalence pins the default engine's bit-identity
// contract at the package level, covering the counting-sort spread
// accumulation: serial (Workers 1) and forced-parallel (Workers 4)
// placements of the same tile land every instance identically.
func TestPlaceWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full tile placement in -short mode")
	}
	d1, fp1 := placedTileFixture(t)
	d2, fp2 := placedTileFixture(t)
	r1, err := Place(d1, fp1, 1.2, Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(d2, fp2, 1.2, Options{Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.HPWL != r2.HPWL || r1.GlobalHPWL != r2.GlobalHPWL {
		t.Fatalf("HPWL diverged across workers: %.6f/%.6f (global %.6f/%.6f)",
			r1.HPWL, r2.HPWL, r1.GlobalHPWL, r2.GlobalHPWL)
	}
	for i := range d1.Instances {
		if d1.Instances[i].Loc != d2.Instances[i].Loc {
			t.Fatalf("instance %s placed differently: %v vs %v",
				d1.Instances[i].Name, d1.Instances[i].Loc, d2.Instances[i].Loc)
		}
	}
}
