// Package flows implements the four end-to-end physical-design flows
// the paper compares on the OpenPiton tile:
//
//   - Flow2D: the baseline single-die flow (macros ring the periphery,
//     six metal layers).
//   - Macro3D: the paper's flow — combined two-die BEOL, edited macro
//     abstracts, single-pass true 3D P&R, then die separation.
//   - S2D (Shrunk-2D, [5]): cells shrunk to 50 % area and placed in
//     the 3D footprint against coarse partial blockages, sized against
//     the pseudo parasitics, then unshrunk, tier-partitioned,
//     overlap-legalized and rerouted with frozen optimization.
//   - C2D (Compact-2D, [6]): cells placed at full size in a 2×
//     footprint with per-unit parasitics scaled by 1/√2, linearly
//     mapped into the 3D footprint, then partitioned and rerouted with
//     frozen optimization.
//
// Every flow ends in the same sign-off: slow-corner STA for f_max,
// typical-corner extraction for power, and the PPA record holding the
// paper's Table I–III rows.
package flows

import (
	"fmt"
	"math"
	"time"

	"macro3d/internal/core"
	"macro3d/internal/cts"
	"macro3d/internal/ddb"
	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/opt"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/power"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

// Config selects the benchmark and flow parameters.
type Config struct {
	// Piton is the tile configuration (piton.SmallCache() /
	// piton.LargeCache()).
	Piton piton.Config

	// LogicMetals per die (paper: 6). MacroDieMetals only affects 3D
	// flows (6 for M6–M6, 4 for the Table III M6–M4 ablation).
	LogicMetals    int
	MacroDieMetals int

	// Util is the standard-cell utilization target for die sizing
	// (default 0.70).
	Util float64

	// TargetPeriod, when > 0, runs timing optimization only until the
	// target is met (iso-performance mode); 0 = max performance.
	TargetPeriod float64

	// BlockageResolution is the partial-blockage rasterization pitch
	// of the S2D/C2D flows, µm (default 50 — deliberately coarse, the
	// commercial-tool behaviour the paper observed).
	BlockageResolution float64

	// F2F overrides the face-to-face via technology (nil = the
	// paper's defaults). Used by the bump-pitch ablation.
	F2F *tech.F2FSpec

	// Generator, when set, supplies the benchmark netlist instead of
	// piton.Generate(Piton) — e.g. a sensor-on-logic SoC. Flows call
	// it freshly per run because they mutate the design. Only Run2D
	// and RunMacro3D support it; the S2D/C2D baselines need the
	// shrunk/scaled pseudo-design regeneration that is specific to the
	// tile generator.
	Generator func() (*piton.Tile, error)

	Seed uint64

	// Retry bounds re-runs of failed stochastic stages (placement,
	// tier partitioning) with deterministically perturbed seeds.
	Retry RetryPolicy

	// StageTimeout, when > 0, is the per-stage wall-clock budget:
	// a stage that exceeds it fails the run with a StageError whose
	// cause wraps context.DeadlineExceeded. Enforced at the stage
	// boundary (stages are not preempted mid-flight).
	StageTimeout time.Duration

	// Verify, when true, appends independent sign-off verification as
	// a final stage (plus die separation for 3D flows to obtain the
	// bump list); a dirty report fails the run with a StageError
	// wrapping *verify.Error.
	Verify bool

	// AfterStage, when set, is invoked after every successful stage
	// with the flow name, stage name and the stage's working state.
	// Used by instrumentation and the fault-injection harness.
	AfterStage func(flow, stage string, st *State)

	// SelfCheck makes every optimization iteration verify its
	// incrementally maintained extraction and timing against a
	// from-scratch recompute (equivalence testing; slow).
	SelfCheck bool

	// Obs, when set, records the run: hierarchical spans (flow →
	// stage → engine phase), per-engine metrics, and the JSONL event
	// stream. nil (the default) disables observability entirely —
	// flows produce byte-identical results either way.
	Obs *obs.Recorder

	// Trace, when set, records the execution timeline: stage slices
	// on a flow-stage track plus per-worker task slices from the
	// parallel engines, exportable as Chrome trace-event JSON
	// (DESIGN.md §14). nil (the default) disables tracing; like Obs,
	// tracing never changes results — flows are byte-identical with
	// it on or off, and it does not enter the stage-cache key.
	Trace *trace.Tracer

	// Workers sets the worker count of the parallel placement phases
	// and routing's net prep and overflow scan (the CLI's -j flag): 0
	// (default) uses every CPU, 1 runs everything inline. Routing waves
	// are always serial. Results are bit-identical at any setting.
	Workers int

	// AnalyticPlace switches global placement to the analytic
	// electrostatics-style engine (the CLI's -analytic-place flag):
	// WA wirelength gradient plus a Poisson bin-density field, with a
	// die-aware weight pricing F2F-bump crossings on nets that span
	// `_MD` macro-die layers. Deterministic at any Workers setting but
	// NOT bit-identical to the default quadratic placer — the flag is
	// part of the result-defining configuration and enters the
	// stage-cache key. HPWL is no worse than the default engine's on
	// the reference tiles (DESIGN.md §16).
	AnalyticPlace bool

	// Cache, when set, enables content-addressed stage checkpointing:
	// completed regions store deterministic snapshots keyed by
	// everything they depend on, and later runs with matching inputs
	// load the snapshot instead of recomputing (DESIGN.md §11).
	// Results are byte-identical with and without the cache. Disabled
	// automatically for runs with a custom Generator or an AfterStage
	// hook, whose state the snapshots cannot capture.
	Cache *stash.Store

	// CacheVerify is the paranoia mode: a cache hit re-runs the region
	// anyway and fails the run unless the recomputed state is
	// bit-identical to the snapshot.
	CacheVerify bool
}

// generate produces a fresh benchmark netlist for a flow run.
func (c Config) generate() (*piton.Tile, error) {
	if c.Generator != nil {
		return c.Generator()
	}
	return piton.Generate(c.Piton)
}

func (c Config) withDefaults() Config {
	if c.LogicMetals == 0 {
		c.LogicMetals = 6
	}
	if c.MacroDieMetals == 0 {
		c.MacroDieMetals = 6
	}
	if c.Util == 0 {
		c.Util = 0.70
	}
	if c.BlockageResolution == 0 {
		c.BlockageResolution = 50
	}
	return c
}

// placeOpts is the placer configuration every flow builds from the
// config: seed, stage span sp (nil disables instrumentation), worker
// count, engine choice and tracer.
func (c Config) placeOpts(sp *obs.Span, seed uint64) place.Options {
	return place.Options{Seed: seed, Obs: sp, Workers: c.Workers, Analytic: c.AnalyticPlace, Trace: c.Trace}
}

// routeOpts is the router configuration every flow builds from the
// config: stage span sp (nil disables instrumentation), worker count
// and tracer.
func (c Config) routeOpts(sp *obs.Span) route.Options {
	return route.Options{Obs: sp, Workers: c.Workers, Trace: c.Trace}
}

// PPA is the flow outcome — one column of the paper's tables.
type PPA struct {
	Flow   string
	Config string

	FclkMHz     float64 // max clock frequency (slow corner)
	MinPeriodPs float64
	EmeanFJ     float64 // energy per cycle, typical corner, at Fclk
	PowerUW     float64
	LeakageUW   float64

	FootprintMM2     float64 // per-die footprint (A_footprint)
	LogicCellAreaMM2 float64 // A_logic-cells
	MetalAreaMM2     float64 // footprint × metal layers over all dies

	TotalWLm  float64 // routed + clock wire, metres
	F2FBumps  int
	CpinNF    float64
	CwireNF   float64
	ClkDepth  int
	ClkSkewPs float64

	CritPathWLmm float64
	CritPathPs   float64

	RouteOverflow int
	Dies          int

	// Hold sign-off (extension beyond the paper's setup-only flow).
	HoldWNSps      float64
	HoldViolations int

	// Optimization statistics.
	Resized, Buffers int
}

// String renders a one-line summary.
func (p *PPA) String() string {
	return fmt.Sprintf("%s/%s: fclk %.0f MHz, Emean %.0f fJ/cyc, A %.2f mm², WL %.2f m, bumps %d, clk depth %d, critWL %.2f mm",
		p.Flow, p.Config, p.FclkMHz, p.EmeanFJ, p.FootprintMM2, p.TotalWLm, p.F2FBumps, p.ClkDepth, p.CritPathWLmm)
}

// State exposes the full implementation objects of a finished flow for
// visualization and deeper inspection.
type State struct {
	Design *netlist.Design
	Tile   *piton.Tile
	Die    geom.Rect
	FP     *floorplan.Floorplan
	Beol   *tech.BEOL
	DB     *route.DB
	Routes *route.Result
	Tree   *cts.Tree
	ExSlow *extract.Design
	DDB    *ddb.DB
	Report *sta.Report
	Sizing floorplan.Sizing

	// Trace is the instrumented stage-by-stage record of the run,
	// populated even when the flow fails part-way.
	Trace *RunReport
}

// signoff runs the common final analysis as instrumented stages:
// slow-corner extraction, optimization under the given budget (frozen
// for S2D, limited for C2D, full for 2D and Macro-3D), hold STA,
// typical-corner power, PPA assembly. Non-finite extraction or power
// results fail the run instead of propagating into the tables.
func signoff(r *runner, cfg Config, st *State, t *tech.Tech, optCfg opt.Options, dies int, metalLayers int) (*PPA, error) {
	slow := t.CornerScaleFor(tech.CornerSlow)
	typ := t.CornerScaleFor(tech.CornerTypical)

	// The effective optimization budget is resolved up front so the
	// signoff checkpoint's key material matches what the optimizer
	// actually runs with.
	if optCfg.TargetPeriod == 0 {
		optCfg.TargetPeriod = cfg.TargetPeriod
	}
	optCfg.SelfCheck = optCfg.SelfCheck || cfg.SelfCheck

	var resized, buffers int
	body := func() error {
		if err := r.stage(StageExtract, func() error {
			st.ExSlow = extract.Extract(st.Design, st.Routes, st.DB, slow)
			if err := st.ExSlow.CheckFinite(); err != nil {
				return err
			}
			st.DDB = ddb.New(st.Design, st.DB, st.Routes, st.ExSlow, slow)
			st.DDB.AttachObs(r.obs())
			return nil
		}); err != nil {
			return err
		}
		return r.stage(StageOpt, func() error {
			octx := &opt.Context{
				Clock: st.Tree,
				FP:    st.FP, RowHeight: t.RowHeight,
				DDB: st.DDB,
				Obs: r.obs(),
			}
			ores, err := opt.Optimize(octx, sta.Options{}, optCfg)
			if err != nil {
				return fmt.Errorf("%s: optimization: %w", st.Design.Name, err)
			}
			st.Report = ores.Report
			resized, buffers = ores.Resized, ores.Buffers
			st.Routes.Recount(st.DB)
			return nil
		})
	}
	if err := r.checkpointed(signoffCheckpoint(r, st, t, signoffMaterial(optCfg), &resized, &buffers), body); err != nil {
		return nil, err
	}

	// Hold sign-off on the final state.
	var hold *sta.Report
	if err := r.stage(StageSTA, func() error {
		var err error
		hold, err = sta.Analyze(st.Design, st.ExSlow, st.Report.MinPeriod, sta.Options{
			Corner: slow, Clock: st.Tree, CheckHold: true, Obs: r.obs(),
		})
		if err != nil {
			return fmt.Errorf("%s: hold sign-off: %w", st.Design.Name, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Power at the typical corner, at the achieved frequency (or the
	// target, for iso-performance runs).
	var exTyp *extract.Design
	var pw *power.Report
	var fclk float64
	if err := r.stage(StagePower, func() error {
		exTyp = extract.Extract(st.Design, st.Routes, st.DB, typ)
		if err := exTyp.CheckFinite(); err != nil {
			return err
		}
		fclk = 1e6 / st.Report.MinPeriod
		if cfg.TargetPeriod > 0 {
			fclk = 1e6 / cfg.TargetPeriod
		}
		pw = power.Analyze(st.Design, exTyp, st.Tree, fclk, power.Options{Corner: typ})
		for _, v := range []struct {
			name string
			val  float64
		}{
			{"energy/cycle", pw.EnergyPerCycleFJ},
			{"power", pw.PowerUW(fclk)},
			{"leakage", pw.LeakageUW},
		} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
				return fmt.Errorf("power: non-finite %s (%v)", v.name, v.val)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	p := &PPA{
		Config:      st.Design.Name,
		FclkMHz:     fclk,
		MinPeriodPs: st.Report.MinPeriod,
		EmeanFJ:     pw.EnergyPerCycleFJ,
		PowerUW:     pw.PowerUW(fclk),
		LeakageUW:   pw.LeakageUW,

		FootprintMM2:     st.Die.Area() / 1e6,
		LogicCellAreaMM2: opt.LogicCellArea(st.Design) / 1e6,
		MetalAreaMM2:     st.Die.Area() / 1e6 * float64(metalLayers),

		TotalWLm: (st.Routes.WL + st.Tree.Wirelength) / 1e6,
		F2FBumps: st.Routes.F2FBumps,
		CpinNF:   (exTyp.CPinTotal + st.Tree.PinCap) / 1e6,
		CwireNF:  (exTyp.CWireTotal + st.Tree.WireCap) / 1e6,

		ClkDepth:  st.Tree.Depth,
		ClkSkewPs: st.Tree.Skew,

		CritPathWLmm: st.Report.Critical.Wirelength / 1e3,
		CritPathPs:   st.Report.Critical.Delay,

		HoldWNSps:      hold.HoldWNS,
		HoldViolations: hold.HoldViolations,

		RouteOverflow: st.Routes.Overflow,
		Dies:          dies,
		Resized:       resized,
		Buffers:       buffers,
	}
	return p, nil
}

// signoffMaterial is the signoff checkpoint's own key material: the
// resolved optimization budget. SelfCheck is excluded — it verifies,
// it never changes results.
func signoffMaterial(o opt.Options) []byte {
	e := stash.NewEnc()
	e.Int(o.MaxIters)
	e.Int(o.MaxMovesPerIter)
	e.F64(o.BufferElmore)
	e.F64(o.BufferSpan)
	e.F64(o.FanoutCap)
	e.F64(o.TargetPeriod)
	e.Bool(o.Frozen)
	e.Bool(o.FullRecompute)
	return e.Bytes()
}

// verifyStage runs the optional independent sign-off check. For 3D
// flows (md != nil) the dies are first separated so the bump list can
// be checked against the bonding pitch. A dirty report fails the run
// with a StageError wrapping *verify.Error.
func verifyStage(r *runner, cfg Config, st *State, t *tech.Tech, md *core.MoLDesign) error {
	if !cfg.Verify {
		return nil
	}
	var bumps []geom.Point
	if md != nil {
		if err := r.stage(StageSeparate, func() error {
			logicPart, _, err := core.Separate(md, st.Routes, st.DB)
			if err != nil {
				return err
			}
			bumps = logicPart.Bumps
			return nil
		}); err != nil {
			return err
		}
	}
	return r.stage(StageVerify, func() error {
		f2f := t.F2F
		if cfg.F2F != nil {
			f2f = *cfg.F2F
		}
		rep := verify.Full(st.Design, st.Die, st.Routes, bumps, f2f, nil)
		if reg := r.obs().Reg(); reg != nil {
			reg.Counter("verify_violations_total",
				"Sign-off verification violations found, duplicates included.").Add(uint64(rep.Total))
			reg.Counter("verify_checked_instances_total",
				"Instances examined by sign-off verification.").Add(uint64(rep.Checked.Instances))
			reg.Counter("verify_checked_nets_total",
				"Nets examined by sign-off verification.").Add(uint64(rep.Checked.Nets))
		}
		if !rep.Clean() {
			return &verify.Error{Report: rep}
		}
		return nil
	})
}

// buildClock synthesizes the clock tree for the placed design.
func buildClock(st *State) {
	d := st.Design
	clk := d.Net("clk")
	src := geom.Pt(st.Die.Lx, st.Die.Center().Y)
	if p := d.Port("clk_i"); p != nil {
		src = p.Loc
	}
	st.Tree = cts.Build(d, clk, src, d.Lib, st.Beol, cts.Options{})
}
