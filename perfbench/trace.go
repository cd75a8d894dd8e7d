package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"macro3d/internal/core"
	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/flows"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

// stageLayer names the per-layer wall-time metric each flow stage
// counts toward. The pseudo-3D baselines' "pseudo-" stages count toward
// the layer of the stage they mimic.
var stageLayer = map[string]string{
	flows.StageGenerate:  "piton.generate_s",
	flows.StageFloorplan: "floorplan.floorplan_s",
	flows.StagePrepare:   "core.prepare_s",
	flows.StagePlace:     "place.place_s",
	flows.StageCTS:       "cts.cts_s",
	flows.StageRoute:     "route.route_s",
	flows.StagePartition: "partition.partition_s",
	flows.StageTransfer:  "flows.transfer_s",
	flows.StageExtract:   "extract.extract_s",
	flows.StageOpt:       "opt.opt_s",
	flows.StageSTA:       "sta.sta_s",
	flows.StagePower:     "power.power_s",
}

// stageClock times flow stages from outside the program, through the
// AfterStage hook: entering the hook ends the current stage's span and
// leaving it starts the next one's, so whatever the hook itself does —
// readings and the serial route replay — falls outside every span.
type stageClock struct {
	// mark is where the current span started.
	mark    time.Time
	markCPU time.Duration

	wall map[string]time.Duration // per layer metric
	cpu  map[string]time.Duration

	// hookWall and hookCPU are the current flow run's time in the hook.
	hookWall, hookCPU time.Duration

	// Totals over the traced runs: wall and CPU time without the hook's
	// own, and the wall time after each run's last span.
	flowWall, flowCPU, untimed time.Duration

	vias, overflow  int
	hpwlM, routeWLm float64
	serial          time.Duration

	// err is the current flow run's first tracing failure: a stage no
	// layer names, or a serial route replay that differs.
	err error
}

func newStageClock() *stageClock {
	return &stageClock{wall: map[string]time.Duration{}, cpu: map[string]time.Duration{}}
}

// run executes one traced operation and accounts its wall time: the
// stage spans plus the untimed tail make up the run's wall time with
// the hook's own time taken out.
func (c *stageClock) run(o op) (outcome, error) {
	runtime.GC()
	c.hookWall, c.hookCPU, c.err = 0, 0, nil
	t0, c0 := time.Now(), cpuTime()
	c.mark, c.markCPU = t0, c0
	out, err := o.run(c.hook)
	end, cpu := time.Now(), cpuTime()
	c.flowWall += end.Sub(t0) - c.hookWall
	c.flowCPU += cpu - c0 - c.hookCPU
	c.untimed += end.Sub(c.mark)
	return out, err
}

func (c *stageClock) hook(_, stage string, st *flows.State) {
	now, cpu := time.Now(), cpuTime()
	layer, ok := stageLayer[strings.TrimPrefix(stage, "pseudo-")]
	if !ok && c.err == nil {
		c.err = fmt.Errorf("stage %q counts toward no layer", stage)
	}
	c.wall[layer] += now.Sub(c.mark)
	c.cpu[layer] += cpu - c.markCPU

	switch layer {
	case "place.place_s":
		c.hpwlM += st.Design.TotalHPWL() / 1e6
	case "route.route_s":
		c.routeWLm += st.Routes.WL / 1e6
		c.vias += st.Routes.Vias
		c.overflow += st.Routes.Overflow
		d, err := serialReplay(st)
		c.serial += d
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("%s: %w", stage, err)
		}
	}

	c.mark, c.markCPU = time.Now(), cpuTime()
	c.hookWall += c.mark.Sub(now)
	c.hookCPU += c.markCPU - cpu
}

// serialReplay re-routes a just-routed design with the serial
// reference engine on an identical grid and blockage set. Its
// wirelength, vias and overflow must equal the parallel run's.
func serialReplay(st *flows.State) (time.Duration, error) {
	t0 := time.Now()
	g := st.DB.Grid
	db := route.NewDB(g.Region, st.DB.Beol, st.FP.RouteBlk, route.Options{Grid: &g, Workers: 1})
	res, err := route.RouteDesign(st.Design, db)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("serial route replay: %w", err)
	}
	if res.WL != st.Routes.WL || res.Vias != st.Routes.Vias || res.Overflow != st.Routes.Overflow {
		return d, fmt.Errorf("serial route replay: WL %v vias %d overflow %d, the flow had WL %v vias %d overflow %d",
			res.WL, res.Vias, res.Overflow, st.Routes.WL, st.Routes.Vias, st.Routes.Overflow)
	}
	return d, nil
}

// arrayReplay is VerifyTileArray redone one public call at a time,
// with each phase timed, plus the quality readings its report lacks.
type arrayReplay struct {
	periodPs float64
	wlM      float64
	overflow int
	drc      int

	stitched, instances int

	abut, stitch, cts, extract, sta time.Duration
	wall, cpu                       time.Duration
}

// replayArray composes the signed-off tile into an n×n array exactly
// as flows.VerifyTileArray does: abut, replicate the tile's routes,
// route the stitched nets, build the array clock tree, extract and
// analyse at the slow corner. With check, sign-off verification of the
// array runs afterwards, outside the timed phases.
func replayArray(cfg flows.Config, st *flows.State, t *tech.Tech, n int, check bool) (*arrayReplay, error) {
	r := &arrayReplay{}
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	lap := func(d *time.Duration) func() {
		s := time.Now()
		return func() { *d = time.Since(s) }
	}

	done := lap(&r.abut)
	arr, die, err := piton.Abut(st.Tile, st.Die, n, n)
	done()
	if err != nil {
		return nil, fmt.Errorf("abut: %w", err)
	}

	done = lap(&r.stitch)
	tg := st.DB.Grid
	ag := geom.Grid{Region: die, NX: tg.NX * n, NY: tg.NY * n, DX: tg.DX, DY: tg.DY}
	var blk []floorplan.RouteBlockage
	for _, m := range arr.Macros() {
		for _, o := range m.Master.Obstructions {
			blk = append(blk, floorplan.RouteBlockage{Layer: o.Layer, Rect: o.Rect.Translate(m.Loc)})
		}
	}
	db := route.NewDB(die, st.Beol, blk, route.Options{Grid: &ag, Workers: cfg.Workers})
	res := &route.Result{
		Routes:     make([]*route.NetRoute, len(arr.Nets)),
		WLPerLayer: make([]float64, st.Beol.NumLayers()),
	}
	var stitched []*netlist.Net
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			tag := fmt.Sprintf("t%d_%d_", ix, iy)
			for _, tn := range st.Tile.Design.Nets {
				if tn.Clock {
					continue
				}
				an := arr.Net(tag + tn.Name)
				if an == nil {
					continue
				}
				if sameShape(tn, an) && st.Routes.Routes[tn.ID] != nil {
					tr := route.TranslateRoute(st.Routes.Routes[tn.ID], ix*tg.NX, iy*tg.NY)
					tr.Net = an
					db.CommitRoute(tr)
					res.SetRoute(an.ID, tr)
				} else {
					stitched = append(stitched, an)
				}
			}
		}
	}
	for _, sn := range stitched {
		nr, err := db.RouteNet(sn)
		if err != nil {
			return nil, fmt.Errorf("stitch route %s: %w", sn.Name, err)
		}
		res.SetRoute(sn.ID, nr)
	}
	res.Recount(db)
	done()

	done = lap(&r.cts)
	src := die.LL()
	if p := arr.Port("clk_i"); p != nil {
		src = p.Loc
	}
	tree := cts.Build(arr, arr.Net("clk"), src, arr.Lib, st.Beol, cts.Options{})
	done()

	slow := t.CornerScaleFor(tech.CornerSlow)
	done = lap(&r.extract)
	ex := extract.Extract(arr, res, db, slow)
	done()

	done = lap(&r.sta)
	rep, err := sta.Analyze(arr, ex, st.Report.MinPeriod, sta.Options{Corner: slow, Clock: tree})
	done()
	if err != nil {
		return nil, fmt.Errorf("array STA: %w", err)
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-c0

	r.periodPs = rep.MinPeriod
	r.wlM = (res.WL + tree.Wirelength) / 1e6
	r.overflow = res.Overflow
	r.stitched = len(stitched)
	r.instances = len(arr.Instances)
	if !check {
		return r, nil
	}
	logic, _, err := core.Separate(&core.MoLDesign{Design: arr, Combined: st.Beol, FP: &floorplan.Floorplan{Die: die}}, res, db)
	if err != nil {
		return nil, fmt.Errorf("array die separation: %w", err)
	}
	r.drc = verify.Full(arr, die, res, logic.Bumps, t.F2F, nil).Total
	return r, nil
}

// phases is the replay's total timed-phase wall time.
func (r *arrayReplay) phases() time.Duration {
	return r.abut + r.stitch + r.cts + r.extract + r.sta
}

// sameShape reports whether an array net kept its tile source's pin
// structure, i.e. was not stitched across tiles (as in
// flows.VerifyTileArray).
func sameShape(a, b *netlist.Net) bool {
	if len(a.Sinks) != len(b.Sinks) || a.Driver.IsPort() != b.Driver.IsPort() {
		return false
	}
	for i := range a.Sinks {
		if a.Sinks[i].IsPort() != b.Sinks[i].IsPort() {
			return false
		}
	}
	return true
}
