package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// tinyOptions runs a workload's passes once, on the tiny tile.
func tinyOptions(workload string, trace bool) options {
	return options{workload: workload, seed: 1, trace: trace, small: piton.Tiny(), large: piton.Tiny()}
}

var endToEnd = []string{"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac", "fclk_mhz", "total_wl_m"}

func TestSmokeWorkloads(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyOptions(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, res.failures)
			}
			want := endToEnd
			if trace {
				want = nil
				for m := range perLayer {
					want = append(want, m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, trace, m, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
			if trace && res.Metrics["flows.span_coverage"].Value < 0.95 {
				t.Errorf("%s: stage spans cover %.3f of the wall time, want ≥ 0.95",
					name, res.Metrics["flows.span_coverage"].Value)
			}
		}
	}
}

// tinyFlow runs one tiny-tile flow through the gate's inputs.
func tinyFlow(t *testing.T, flow string, fn func(flows.Config) (*flows.PPA, *flows.State, error)) (*env, op, outcome) {
	t.Helper()
	e, err := newEnv(piton.Tiny(), piton.Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	o := flowOp(flow, e.config(e.small), fn)
	out, err := o.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, o, out
}

func TestGateRejects(t *testing.T) {
	e, o, out := tinyFlow(t, "2D", run2D)
	g := newGate()
	if _, err := g.check(o.key, out, nil, e.tech); err != nil {
		t.Fatalf("genuine run rejected: %v", err)
	}

	perturbed := *out.ppa
	perturbed.MinPeriodPs = math.Nextafter(perturbed.MinPeriodPs, math.Inf(1))
	if _, err := g.check("perturbed", outcome{ppa: &perturbed, st: out.st}, nil, e.tech); err == nil ||
		!strings.Contains(err.Error(), "from-scratch STA") {
		t.Errorf("perturbed MinPeriodPs: err = %v, want a from-scratch STA mismatch", err)
	}

	mismatched := *out.ppa
	mismatched.TotalWLm *= 1.0001
	if _, err := g.check(o.key, outcome{ppa: &mismatched, st: out.st}, nil, e.tech); err == nil ||
		!strings.Contains(err.Error(), "differs from an earlier run") {
		t.Errorf("mismatched repeat: err = %v, want a repeat mismatch", err)
	}

	nan := *out.ppa
	nan.EmeanFJ = math.NaN()
	if _, err := g.check("nan", outcome{ppa: &nan, st: out.st}, nil, e.tech); err == nil {
		t.Error("non-finite PPA accepted")
	}

	if g.attempted != 4 || g.failed != 3 {
		t.Errorf("attempted %d failed %d, want 4 and 3", g.attempted, g.failed)
	}
}

// spans is the total wall time of every stage span.
func (c *stageClock) spans() time.Duration {
	var s time.Duration
	for _, d := range c.wall {
		s += d
	}
	return s
}

func TestSpansSumToWall(t *testing.T) {
	e, err := newEnv(piton.Tiny(), piton.Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []op{
		flowOp("2D", e.config(e.small), run2D),
		flowOp("C2D", e.config(e.small), runC2D),
	} {
		c := newStageClock()
		if _, err := c.run(o); err != nil {
			t.Fatal(err)
		}
		if err := c.err; err != nil {
			t.Fatalf("%s: %v", o.key, err)
		}
		if got := c.spans() + c.untimed; got != c.flowWall {
			t.Errorf("%s: spans %v + untimed %v = %v, flow wall %v", o.key, c.spans(), c.untimed, got, c.flowWall)
		}
		if cov := float64(c.spans()) / float64(c.flowWall); cov < 0.95 {
			t.Errorf("%s: spans cover %.3f of the flow's wall time", o.key, cov)
		}
		if c.serial <= 0 || c.wall["route.route_s"] <= 0 {
			t.Errorf("%s: route %v, serial replay %v", o.key, c.wall["route.route_s"], c.serial)
		}
	}
}

func TestHookKeepsPPA(t *testing.T) {
	for flow, fn := range map[string]func(flows.Config) (*flows.PPA, *flows.State, error){
		"2D": run2D, "Macro-3D": runMacro3D, "MoL S2D": runS2D, "C2D": runC2D,
	} {
		_, o, plain := tinyFlow(t, flow, fn)
		traced, err := newStageClock().run(o)
		if err != nil {
			t.Fatal(err)
		}
		if *plain.ppa != *traced.ppa {
			t.Errorf("%s: PPA with the hook differs:\n  %+v\n  %+v", flow, *plain.ppa, *traced.ppa)
		}
	}
}

func TestArrayReplayMatches(t *testing.T) {
	e, _, out := tinyFlow(t, "Macro-3D", runMacro3D)
	rep, err := flows.VerifyTileArray(e.config(e.small), out.st, e.tech, arrayN, arrayN)
	if err != nil {
		t.Fatal(err)
	}
	r, err := replayArray(e.config(e.small), out.st, e.tech, arrayN, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.periodPs != rep.ArrayPeriod || r.stitched != rep.StitchedNets {
		t.Errorf("replay period %v ps, %d stitched nets; VerifyTileArray %v ps, %d",
			r.periodPs, r.stitched, rep.ArrayPeriod, rep.StitchedNets)
	}
	if got := r.phases(); got > r.wall {
		t.Errorf("phases %v exceed the replay's wall time %v", got, r.wall)
	}
}
