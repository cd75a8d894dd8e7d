package flows

import (
	"context"

	"macro3d/internal/floorplan"
	"macro3d/internal/netlist"
	"macro3d/internal/opt"
	"macro3d/internal/place"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// Run2D executes the baseline single-die flow: periphery macro ring,
// six metal layers, full timing optimization against true parasitics.
func Run2D(cfg Config) (*PPA, *State, error) {
	return Run2DCtx(context.Background(), cfg)
}

// Run2DCtx is Run2D honouring cancellation and per-stage deadlines at
// stage boundaries. On failure the returned State carries the partial
// trace (State.Trace) of how far the flow got.
func Run2DCtx(ctx context.Context, cfg Config) (*PPA, *State, error) {
	cfg = cfg.withDefaults()
	st := &State{}
	r := newRunner(ctx, "2D", cfg, st)

	var t *tech.Tech
	if err := r.stage(StageGenerate, func() error {
		var err error
		if t, err = tech.New28(cfg.LogicMetals); err != nil {
			return err
		}
		tile, err := cfg.generate()
		if err != nil {
			return err
		}
		st.Design, st.Tile, st.Beol = tile.Design, tile, t.Logic
		return nil
	}); err != nil {
		return nil, st, err
	}
	d := st.Design

	if err := r.stage(StageFloorplan, func() error {
		sz, err := floorplan.SizeDesign(d, cfg.Util, 1.0, t.RowHeight)
		if err != nil {
			return err
		}
		st.Die, st.Sizing = sz.Die2D, sz
		fp, _, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
		if err != nil {
			return err
		}
		st.FP = fp
		floorplan.BuildBlockages(fp, d, netlist.LogicDie)
		floorplan.AssignPorts(st.Tile, sz.Die2D)
		return nil
	}); err != nil {
		return nil, st, err
	}

	if err := r.checkpointed(placementCheckpoint(StagePlace, nil, d), func() error {
		return r.seededStage(StagePlace, cfg.Seed+1, func(seed uint64) error {
			_, err := place.Place(d, st.FP, t.RowHeight, cfg.placeOpts(r.obs(), seed))
			return err
		})
	}); err != nil {
		return nil, st, err
	}

	if err := r.stage(StageCTS, func() error {
		buildClock(st)
		return nil
	}); err != nil {
		return nil, st, err
	}

	buildDB := func() {
		st.DB = route.NewDB(st.Die, t.Logic, st.FP.RouteBlk, cfg.routeOpts(r.obs()))
	}
	if err := r.checkpointed(routeCheckpoint(st, d, nil, buildDB), func() error {
		return r.stage(StageRoute, func() error {
			buildDB()
			var err error
			st.Routes, err = route.RouteDesign(d, st.DB)
			return err
		})
	}); err != nil {
		return nil, st, err
	}

	ppa, err := signoff(r, cfg, st, t, opt.Options{}, 1, cfg.LogicMetals)
	if err != nil {
		return nil, st, err
	}
	if err := verifyStage(r, cfg, st, t, nil); err != nil {
		return nil, st, err
	}
	r.finish()
	ppa.Flow = "2D"
	return ppa, st, nil
}
