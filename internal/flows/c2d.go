package flows

import (
	"context"
	"fmt"
	"math"

	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/opt"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// RunC2D executes the Compact-2D baseline [6]: full-size cells are
// placed in a floorplan of 2× the target 3D footprint with per-unit
// interconnect parasitics scaled by 1/√2 (so wire estimates mimic the
// 3D target despite the inflated floorplan); blockage areas are scaled
// 2×; after P&R and sizing, cell locations are linearly mapped into
// the 3D footprint, tiers are partitioned, overlaps legalized, and the
// combined stack rerouted with only a limited post-partition touch-up
// — C2D's "post-tier-partitioning optimization and incremental
// routing".
func RunC2D(cfg Config) (*PPA, *State, error) {
	return RunC2DCtx(context.Background(), cfg)
}

// RunC2DCtx is RunC2D honouring cancellation and per-stage deadlines
// at stage boundaries.
func RunC2DCtx(ctx context.Context, cfg Config) (*PPA, *State, error) {
	cfg = cfg.withDefaults()
	stP := &State{}
	r := newRunner(ctx, "C2D", cfg, stP)

	var t *tech.Tech
	var realTile *piton.Tile
	var dReal *netlist.Design
	var sz floorplan.Sizing
	var die geom.Rect
	if err := r.stage(StageGenerate, func() error {
		if cfg.Generator != nil {
			return fmt.Errorf("flows: custom generators are only supported by Run2D/RunMacro3D")
		}
		var err error
		if t, err = tech.New28(cfg.LogicMetals); err != nil {
			return err
		}
		// Real design, 3D footprint, MoL macro floorplan.
		if realTile, err = piton.Generate(cfg.Piton); err != nil {
			return err
		}
		dReal = realTile.Design
		return nil
	}); err != nil {
		return nil, stP, err
	}

	if err := r.stage(StageFloorplan, func() error {
		var err error
		sz, err = floorplan.SizeDesign(dReal, cfg.Util, 1.0, t.RowHeight)
		if err != nil {
			return err
		}
		die = sz.Die3D
		if _, _, err := floorplan.PlaceMacros(dReal, die, floorplan.StyleMoL); err != nil {
			return err
		}
		floorplan.AssignPorts(realTile, die)
		return nil
	}); err != nil {
		return nil, stP, err
	}

	// ---- Phase A: the 2×-footprint pseudo design. ----
	s := math.Sqrt2
	// Like S2D, the whole pseudo P&R plus the linear map back is one
	// checkpoint over the real design's standard-cell state.
	var dP *netlist.Design
	var fpP *floorplan.Floorplan
	var dieC geom.Rect
	pseudoBody := func() error {
		if err := r.stage("pseudo-"+StageFloorplan, func() error {
			dieC = geom.R(die.Lx*s, die.Ly*s, die.Ux*s, die.Uy*s)
			pseudoTile, err := piton.Generate(cfg.Piton)
			if err != nil {
				return err
			}
			dP = pseudoTile.Design

			// Macros at linearly scaled locations; blockage rects scaled
			// 2× in area (√2 per dimension, about the origin — consistent
			// with the location map).
			var logicRects, macroRects []geom.Rect
			for _, m := range dReal.Macros() {
				pm := dP.Instance(m.Name)
				if pm == nil {
					return fmt.Errorf("c2d: pseudo design lacks macro %s", m.Name)
				}
				pm.Loc = m.Loc.Scale(s)
				pm.Fixed, pm.Placed = true, true
				pm.Die = netlist.LogicDie
				scaled := m.Bounds().Scale(s)
				if m.Die == netlist.LogicDie {
					logicRects = append(logicRects, scaled)
				} else {
					macroRects = append(macroRects, scaled)
				}
			}
			floorplan.AssignPorts(pseudoTile, dieC)

			pbm := floorplan.NewPartialBlockageMap(dieC, cfg.BlockageResolution, logicRects, macroRects)
			fpP = &floorplan.Floorplan{Die: dieC, PlaceBlk: pbm.Blockages()}
			for _, m := range dReal.Macros() {
				if m.Die != netlist.LogicDie {
					continue
				}
				for _, o := range m.Master.Obstructions {
					fpP.RouteBlk = append(fpP.RouteBlk, floorplan.RouteBlockage{
						Layer: o.Layer, Rect: o.Rect.Translate(m.Loc).Scale(s),
					})
				}
			}

			// Per-unit parasitics scaled by 1/√2: routes in the inflated
			// floorplan estimate target-3D RC.
			scaledBeol := tech.ScaleParasitics(t.Logic, 1/s)
			stP.Design, stP.Tile, stP.Die = dP, pseudoTile, dieC
			stP.FP, stP.Beol, stP.Sizing = fpP, scaledBeol, sz
			return nil
		}); err != nil {
			return err
		}

		if err := r.seededStage("pseudo-"+StagePlace, cfg.Seed+4, func(seed uint64) error {
			_, err := place.Place(dP, fpP, t.RowHeight, cfg.placeOpts(r.obs(), seed))
			return err
		}); err != nil {
			return err
		}

		if err := r.stage("pseudo-"+StageRoute, func() error {
			buildClock(stP)
			stP.DB = route.NewDB(dieC, stP.Beol, fpP.RouteBlk, cfg.routeOpts(r.obs()))
			var err error
			stP.Routes, err = route.RouteDesign(dP, stP.DB)
			return err
		}); err != nil {
			return err
		}

		if err := r.stage("pseudo-"+StageOpt, func() error {
			slow := t.CornerScaleFor(tech.CornerSlow)
			stP.ExSlow = extract.Extract(dP, stP.Routes, stP.DB, slow)
			if err := stP.ExSlow.CheckFinite(); err != nil {
				return err
			}
			stP.DDB = ddb.New(dP, stP.DB, stP.Routes, stP.ExSlow, slow)
			_, err := opt.Optimize(&opt.Context{
				Clock: stP.Tree,
				FP:    fpP, RowHeight: t.RowHeight,
				DDB: stP.DDB,
			}, sta.Options{}, opt.Options{BufferElmore: 1e12, SelfCheck: cfg.SelfCheck})
			return err
		}); err != nil {
			return err
		}

		// ---- Transfer: linear map into the 3D footprint. ----
		return r.stage(StageTransfer, func() error {
			return transferPseudoScaled(dP, dReal, 1/s)
		})
	}
	if err := r.checkpointed(pseudoCheckpoint(resolutionMaterial(cfg), dReal), pseudoBody); err != nil {
		return nil, stP, err
	}

	// ---- Phase B with C2D's limited post-partition optimization. ----
	return finish3DBaseline(r, cfg, t, realTile, die, sz,
		opt.Options{MaxIters: 2, MaxMovesPerIter: 8})
}

// transferPseudoScaled copies drive choices and linearly mapped cell
// locations from the pseudo design onto the real one.
func transferPseudoScaled(dP, dReal *netlist.Design, scale float64) error {
	for _, c := range dReal.StdCells() {
		pc := dP.Instance(c.Name)
		if pc == nil {
			return fmt.Errorf("flows: pseudo design lacks instance %s", c.Name)
		}
		ctr := pc.Center().Scale(scale)
		c.Loc = geom.Pt(ctr.X-c.Master.Width/2, ctr.Y-c.Master.Height/2)
		c.Placed = true
		if pc.Master.Name != c.Master.Name {
			to := dReal.Lib.Cell(pc.Master.Name)
			if to == nil {
				return fmt.Errorf("flows: real library lacks %s", pc.Master.Name)
			}
			if err := dReal.Resize(c, to); err != nil {
				return err
			}
		}
	}
	return nil
}
