package flows

import (
	"context"
	"fmt"
	"time"

	"macro3d/internal/cell"
	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/power"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

// HierReport is the outcome of the hierarchical parent flow: one tile
// hardened into an abstract, nx×ny abstract instances composed by
// abutment, and only the parent-level work (stitch routing, clock
// tree, boundary STA, verification) done from scratch.
type HierReport struct {
	Nx, Ny   int
	Abstract *cell.Cell
	Design   *netlist.Design
	Die      geom.Rect
	Routes   *route.Result
	Tree     *cts.Tree

	TilePeriodPs  float64 // the hardened block's own sign-off period
	ArrayPeriodPs float64 // parent minimum period (floored by the tile's)
	ClosesAtTile  bool    // array period ≤ tile period (+2 % tolerance)
	Critical      sta.Path

	StitchedNets int // inter-tile abutment connections routed by the parent
	F2FBumps     int // parent stitch crossings + per-instance hardened bumps

	// Energy per cycle: parent stitching + clock dynamic energy plus
	// the hardened block's per-cycle energy per instance. Leakage
	// covers every abstract instance (Cell.Leakage) plus the parent
	// clock buffers.
	EnergyPerCycleFJ float64
	PowerUW          float64
	LeakageUW        float64

	HardenCacheHit bool
	HardenElapsed  time.Duration // hardening (or cache load) wall clock
	ParentElapsed  time.Duration // parent-level compose→signoff wall clock
}

// RunHierArray is the hierarchical flow of DESIGN.md §13: harden the
// configured tile once (flow is HardenMacro3D or Harden2D), then
// instantiate the abstract nx×ny by abutment and sign off only the
// parent level. Against VerifyTileArray's flat re-verification this
// trades per-instance detail for wall clock: the sub-block P&R runs
// once (or zero times, on a warm cache), not per instance.
func RunHierArray(cfg Config, flow string, nx, ny int) (*HierReport, error) {
	return RunHierArrayCtx(context.Background(), cfg, flow, nx, ny)
}

// RunHierArrayCtx is RunHierArray with run cancellation.
func RunHierArrayCtx(ctx context.Context, cfg Config, flow string, nx, ny int) (*HierReport, error) {
	cfg = cfg.withDefaults()
	hr, err := HardenCtx(ctx, cfg, flow)
	if err != nil {
		return nil, err
	}
	rep, err := InstantiateArray(cfg, hr, nx, ny)
	if err != nil {
		return nil, err
	}
	rep.HardenCacheHit = hr.CacheHit
	rep.HardenElapsed = hr.Elapsed
	return rep, nil
}

// InstantiateArray runs the parent level of the hierarchical flow on
// an already-hardened block: compose nx×ny abstracts by abutment,
// route the stitched nets against the abstracts' per-layer
// obstructions, synthesize the parent clock tree over the abstract
// clock pins, extract, and close timing with the boundary model.
func InstantiateArray(cfg Config, hr *HardenResult, nx, ny int) (*HierReport, error) {
	cfg = cfg.withDefaults()
	t0 := time.Now()
	abs := hr.Abstract
	if abs == nil || abs.Abstract == nil {
		return nil, fmt.Errorf("hier: HardenResult carries no abstract")
	}

	t, err := tech.New28(cfg.LogicMetals)
	if err != nil {
		return nil, err
	}
	beol, err := parentBEOL(cfg, t, abs)
	if err != nil {
		return nil, err
	}

	tileDie := geom.R(0, 0, abs.Width, abs.Height)
	d, die, err := piton.ComposeAbstract(hr.Tile, abs, tileDie, nx, ny)
	if err != nil {
		return nil, err
	}

	// The parent router sees each instance as its per-layer residual:
	// obstructions cover exactly the gcells the hardened
	// implementation used or blocked, so stitch routes thread the
	// genuinely free tracks over the macros instead of detouring
	// around opaque full-stack blockages.
	var blk []floorplan.RouteBlockage
	for _, inst := range d.Instances {
		for _, o := range inst.Master.Obstructions {
			blk = append(blk, floorplan.RouteBlockage{
				Layer: o.Layer, Rect: o.Rect.Translate(inst.Loc),
			})
		}
	}
	db := route.NewDB(die, beol, blk, cfg.routeOpts(nil))
	res, err := route.RouteDesign(d, db)
	if err != nil {
		return nil, fmt.Errorf("hier: stitch routing: %w", err)
	}

	clkSrc := geom.Pt(die.Lx, die.Center().Y)
	if p := d.Port("clk_i"); p != nil {
		clkSrc = p.Loc
	}
	tree := cts.Build(d, d.Net("clk"), clkSrc, d.Lib, beol, cts.Options{})

	slow := t.CornerScaleFor(tech.CornerSlow)
	ex := extract.Extract(d, res, db, slow)
	if err := ex.CheckFinite(); err != nil {
		return nil, fmt.Errorf("hier: %w", err)
	}
	srep, err := sta.Analyze(d, ex, abs.Abstract.MinPeriodPs, sta.Options{Corner: slow, Clock: tree})
	if err != nil {
		return nil, fmt.Errorf("hier: STA: %w", err)
	}

	if cfg.Verify {
		f2f := t.F2F
		if cfg.F2F != nil {
			f2f = *cfg.F2F
		}
		vrep := verify.Full(d, die, res, nil, f2f, nil)
		if !vrep.Clean() {
			return nil, &verify.Error{Report: vrep}
		}
	}

	// Power: the parent-level analysis sees the stitch wires, the
	// clock tree and every instance's leakage; each instance's
	// dynamic energy comes from its hardened signoff.
	typ := t.CornerScaleFor(tech.CornerTypical)
	exT := extract.Extract(d, res, db, typ)
	fclk := 1e6 / srep.MinPeriod
	pw := power.Analyze(d, exT, tree, fclk, power.Options{})

	stitched := 0
	for _, n := range d.Nets {
		if !n.Clock && len(n.Sinks) > 0 && !n.Driver.IsPort() && !n.Sinks[0].IsPort() {
			stitched++
		}
	}

	out := &HierReport{
		Nx: nx, Ny: ny,
		Abstract: abs, Design: d, Die: die,
		Routes: res, Tree: tree,

		TilePeriodPs:  abs.Abstract.MinPeriodPs,
		ArrayPeriodPs: srep.MinPeriod,
		Critical:      srep.Critical,

		StitchedNets: stitched,
		F2FBumps:     res.F2FBumps + nx*ny*abs.Abstract.F2FBumps,

		EnergyPerCycleFJ: pw.DynamicFJ + float64(nx*ny)*abs.Abstract.EnergyPerCycleFJ,
		LeakageUW:        pw.LeakageUW,

		ParentElapsed: time.Since(t0),
	}
	out.ClosesAtTile = srep.MinPeriod <= abs.Abstract.MinPeriodPs*1.02
	out.PowerUW = out.EnergyPerCycleFJ*fclk*1e-3 + pw.LeakageUW
	return out, nil
}

// parentBEOL picks the routing stack the parent level runs on: the
// hardened block's own stack. A Macro-3D-hardened abstract carries
// obstructions on the _MD macro-die layers, so the parent must route
// on the same combined BEOL; a 2D-hardened abstract lives on the
// plain logic stack.
func parentBEOL(cfg Config, t *tech.Tech, abs *cell.Cell) (*tech.BEOL, error) {
	needMD := false
	for _, o := range abs.Obstructions {
		if t.Logic.LayerIndex(o.Layer) < 0 {
			needMD = true
			break
		}
	}
	if !needMD {
		return t.Logic, nil
	}
	macroBeol, err := tech.NewBEOL28("macro28", cfg.MacroDieMetals)
	if err != nil {
		return nil, err
	}
	f2f := t.F2F
	if cfg.F2F != nil {
		f2f = *cfg.F2F
	}
	return tech.Combine(t.Logic, macroBeol, f2f)
}
