// Command perfbench is the repository benchmark: it times the public
// flow entry points of internal/flows on three workloads, checks every
// result with a correctness gate, and prints the metrics named in
// BENCHMARK.json. See README.md in this directory.
//
//	perfbench --workload table2|pseudo3d|array3x3 --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"macro3d/internal/piton"
)

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	small, large piton.Config
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: table2, pseudo3d or array3x3")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (1 = the CLI's default run)")
	flag.Float64Var(&o.seconds, "seconds", 10, "minimum measured time; whole passes run until it is spent")
	traceFlag := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics instead")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	o.small, o.large = piton.SmallCache(), piton.LargeCache()

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want table2, pseudo3d or array3x3)", o.workload)
	}
	if o.seed == 0 {
		return nil, fmt.Errorf("seed must be at least 1")
	}
	e, err := newEnv(o.small, o.large, o.seed)
	if err != nil {
		return nil, err
	}
	g := newGate()

	var setups []float64
	for len(setups) < w.setups {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e, g); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Each array's from-scratch reference, off the clock.
	for _, at := range e.tiles {
		if at.ref, err = replayArray(at.cfg, at.st, e.tech, arrayN, false); err != nil {
			return nil, fmt.Errorf("array replay: %w", err)
		}
		g.reference(at.key, at.ref.periodPs)
	}
	ops := w.ops(e)

	// Timed passes: whole passes until the time is spent. The gate
	// runs off the clock.
	var walls, cpus []float64
	var q quality
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < o.seconds {
		var wall, cpu time.Duration
		q = quality{}
		for _, op := range ops {
			out, dw, dc, err := timed(func() (outcome, error) { return op.run(nil) })
			wall += dw
			cpu += dc
			if _, gerr := g.check(op.key, out, err, e.tech); gerr == nil {
				q.addOutcome(out)
			}
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
	}
	fmt.Printf("%s seed %d: pass walls %.3f s, cpus %.3f s, set-ups %.3f s\n", w.name, o.seed, walls, cpus, setups)

	res := &result{}
	if o.trace {
		res.Metrics = tracedPass(e, g, ops, median(walls))
	} else {
		ru := rusage()
		res.Metrics = map[string]metric{
			"wall_s":      {median(walls), "s"},
			"cpu_s":       {median(cpus), "s"},
			"setup_s":     {median(setups), "s"},
			"peak_rss_mb": {float64(ru.Maxrss) / 1024, "MB"},
			"ok_frac":     {1 - float64(g.failed)/float64(g.attempted), "ratio"},
			"fclk_mhz":    {q.fclkMHz(), "MHz"},
			"total_wl_m":  {q.wlM, "m"},
		}
	}
	res.Attempted, res.Failed, res.failures = g.attempted, g.failed, g.failures
	res.Correct = g.failed == 0
	return res, nil
}

func (q *quality) addOutcome(out outcome) {
	if out.array != nil {
		q.add(1e6/out.array.ArrayPeriod, out.tile.ref.wlM)
		return
	}
	q.add(out.ppa.FclkMHz, out.ppa.TotalWLm)
}

// perLayer lists every per-layer metric with its unit; a workload
// reports 0 for a layer it does not run.
var perLayer = map[string]string{
	"route.route_s": "s", "route.cpu_s": "s", "route.serial_s": "s", "route.parallel_over_serial": "ratio",
	"route.wl_m": "m", "route.vias": "count", "route.overflow": "count",
	"opt.opt_s": "s", "opt.cpu_s": "s", "opt.resized": "count", "opt.buffers": "count",
	"place.place_s": "s", "place.cpu_s": "s", "place.hpwl_m": "m",
	"partition.partition_s": "s",
	"piton.generate_s":      "s", "piton.instances": "count", "piton.abut_s": "s",
	"route.stitch_s": "s", "route.stitched_nets": "count",
	"cts.cts_s": "s", "extract.extract_s": "s", "sta.sta_s": "s", "sta.array_period_ps": "ps",
	"power.power_s": "s", "floorplan.floorplan_s": "s",
	"core.prepare_s": "s", "flows.transfer_s": "s",
	"verify.violations": "count",
	"par.cpu_util":      "ratio",
	"flows.untimed_s":   "s", "flows.span_coverage": "ratio", "flows.trace_overhead_s": "s",
	"flows.m3d_fclk_gain_pct": "%",
}

// tracedPass runs every operation once more, traced, and returns the
// per-layer metrics. Its results go through the gate like any other
// run, so they must equal the untraced runs'.
func tracedPass(e *env, g *gate, ops []op, untracedWall float64) map[string]metric {
	v := map[string]float64{}
	var wall, cpu time.Duration
	if len(e.tiles) > 0 {
		var logPeriod float64
		for _, at := range e.tiles {
			g.attempted++
			r, err := replayArray(at.cfg, at.st, e.tech, arrayN, true)
			if err == nil && r.periodPs != at.ref.periodPs {
				err = fmt.Errorf("array period %v ps, the earlier replay gave %v ps", r.periodPs, at.ref.periodPs)
			}
			if err != nil {
				g.fail(at.key+" traced replay", err)
				continue
			}
			v["piton.abut_s"] += r.abut.Seconds()
			v["route.stitch_s"] += r.stitch.Seconds()
			v["cts.cts_s"] += r.cts.Seconds()
			v["extract.extract_s"] += r.extract.Seconds()
			v["sta.sta_s"] += r.sta.Seconds()
			v["route.stitched_nets"] += float64(r.stitched)
			v["piton.instances"] += float64(r.instances)
			v["route.overflow"] += float64(r.overflow)
			v["verify.violations"] += float64(r.drc)
			v["flows.untimed_s"] += (r.wall - r.phases()).Seconds()
			logPeriod += math.Log(r.periodPs)
			wall += r.wall
			cpu += r.cpu
		}
		v["sta.array_period_ps"] = math.Exp(logPeriod / float64(len(e.tiles)))
	} else {
		c := newStageClock()
		fclk := map[[2]string]float64{}
		for _, op := range ops {
			out, err := c.run(op)
			drc, gerr := g.check(op.key, out, err, e.tech)
			if gerr != nil {
				continue
			}
			if c.err != nil {
				g.fail(op.key, c.err)
				continue
			}
			v["verify.violations"] += float64(drc)
			v["piton.instances"] += float64(e.instances[op.tile])
			v["opt.resized"] += float64(out.ppa.Resized)
			v["opt.buffers"] += float64(out.ppa.Buffers)
			fclk[[2]string{op.flow, op.tile}] = out.ppa.FclkMHz
		}
		for layer, d := range c.wall {
			v[layer] = d.Seconds()
		}
		for _, l := range []string{"route", "opt", "place"} {
			v[l+".cpu_s"] = c.cpu[l+"."+l+"_s"].Seconds()
		}
		v["route.serial_s"] = c.serial.Seconds()
		if c.serial > 0 {
			v["route.parallel_over_serial"] = c.wall["route.route_s"].Seconds() / c.serial.Seconds()
		}
		v["route.wl_m"] = c.routeWLm
		v["route.vias"] = float64(c.vias)
		v["route.overflow"] = float64(c.overflow)
		v["place.hpwl_m"] = c.hpwlM
		v["flows.untimed_s"] = c.untimed.Seconds()
		v["flows.m3d_fclk_gain_pct"] = m3dGainPct(fclk, e)
		wall, cpu = c.flowWall, c.flowCPU
	}
	if wall > 0 {
		v["par.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		v["flows.span_coverage"] = 1 - v["flows.untimed_s"]/wall.Seconds()
	}
	v["flows.trace_overhead_s"] = wall.Seconds() - untracedWall
	return layerMetrics(v)
}

// m3dGainPct is the geometric-mean Macro-3D over 2D f_clk gain across
// the tiles both flows ran on, in percent; 0 when no tile has both.
func m3dGainPct(fclk map[[2]string]float64, e *env) float64 {
	prod, n := 1.0, 0
	for _, tile := range []string{e.small.Name, e.large.Name} {
		f2, ok2 := fclk[[2]string{"2D", tile}]
		f3, ok3 := fclk[[2]string{"Macro-3D", tile}]
		if ok2 && ok3 {
			prod *= f3 / f2
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (math.Pow(prod, 1/float64(n)) - 1) * 100
}

func layerMetrics(v map[string]float64) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for name, unit := range perLayer {
		m[name] = metric{v[name], unit}
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}
