package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
	"macro3d/internal/tech"
)

// env is a workload's input: the technology, the tile configs derived
// from the workload seed and the flow seed.
type env struct {
	tech         *tech.Tech
	small, large piton.Config
	seed         uint64
	// instances counts each input tile's generated instances by name.
	instances map[string]int

	// tiles are the array3x3 workload's signed-off tiles, one per
	// set-up.
	tiles []*arrayTile
}

// arrayTile is one signed-off Macro-3D large tile of the array3x3
// workload, with the from-scratch replay its arrays must match.
type arrayTile struct {
	key string
	cfg flows.Config
	st  *flows.State
	ref *arrayReplay
}

// tileSeed derives a tile's generator seed from the workload seed.
// Seed 1 keeps the tile config's own generator seed, so it reproduces
// the CLI's default run; any other seed moves every tile to a new
// netlist.
func tileSeed(c piton.Config, seed uint64) piton.Config {
	c.Seed += 1000 * (seed - 1)
	return c
}

func newEnv(small, large piton.Config, seed uint64) (*env, error) {
	t, err := tech.New28(6)
	if err != nil {
		return nil, fmt.Errorf("technology: %w", err)
	}
	return &env{tech: t, small: tileSeed(small, seed), large: tileSeed(large, seed), seed: seed,
		instances: map[string]int{}}, nil
}

// generate builds each input tile once, which checks that the seed
// yields valid inputs before the timed passes.
func (e *env) generate() error {
	for _, c := range []piton.Config{e.small, e.large} {
		tile, err := piton.Generate(c)
		if err != nil {
			return fmt.Errorf("generate %s: %w", c.Name, err)
		}
		if len(tile.Design.Instances) == 0 {
			return fmt.Errorf("generate %s: empty netlist", c.Name)
		}
		e.instances[c.Name] = len(tile.Design.Instances)
	}
	return nil
}

// config is the flow configuration of one operation: every CPU, no
// stage cache, no custom generator.
func (e *env) config(pc piton.Config) flows.Config {
	return flows.Config{Piton: pc, Seed: e.seed, Workers: 0}
}

// outcome is what one operation returns for the gate to check.
type outcome struct {
	ppa   *flows.PPA
	st    *flows.State
	array *flows.ArrayReport
	tile  *arrayTile // the array's tile
}

// op is one timed operation: a flow run or a VerifyTileArray call.
// Repeats of one key must give identical results.
type op struct {
	key  string
	flow string
	tile string // input tile name
	run  func(hook func(flow, stage string, st *flows.State)) (outcome, error)
}

func flowOp(flow string, cfg flows.Config, fn func(flows.Config) (*flows.PPA, *flows.State, error)) op {
	key := fmt.Sprintf("%s/%s/gen-seed-%d", flow, cfg.Piton.Name, cfg.Piton.Seed)
	return op{key: key, flow: flow, tile: cfg.Piton.Name, run: func(hook func(string, string, *flows.State)) (outcome, error) {
		c := cfg
		c.AfterStage = hook
		ppa, st, err := fn(c)
		return outcome{ppa: ppa, st: st}, err
	}}
}

func run2D(c flows.Config) (*flows.PPA, *flows.State, error) { return flows.Run2D(c) }

func runMacro3D(c flows.Config) (*flows.PPA, *flows.State, error) {
	ppa, st, _, err := flows.RunMacro3D(c)
	return ppa, st, err
}

func runS2D(c flows.Config) (*flows.PPA, *flows.State, error) { return flows.RunS2D(c, false) }

func runC2D(c flows.Config) (*flows.PPA, *flows.State, error) { return flows.RunC2D(c) }

// arrayN is the side of the array3x3 workload's tile array.
const arrayN = 3

// workload is one benchmark input set.
type workload struct {
	name string
	// setups is how many times set-up runs; setup_s is the median.
	setups int
	// setup prepares the inputs; its time is setup_s.
	setup func(e *env, g *gate) error
	ops   func(e *env) []op
}

func generateSetup(e *env, _ *gate) error { return e.generate() }

var workloads = map[string]workload{
	// The paper's headline comparison (Table II): 2D against Macro-3D
	// on both tiles, with full timing optimization.
	"table2": {name: "table2", setups: 9, setup: generateSetup, ops: func(e *env) []op {
		return []op{
			flowOp("2D", e.config(e.small), run2D),
			flowOp("Macro-3D", e.config(e.small), runMacro3D),
			flowOp("2D", e.config(e.large), run2D),
			flowOp("Macro-3D", e.config(e.large), runMacro3D),
		}
	}},
	// The pseudo-3D baselines: MoL S2D and C2D on the small tile.
	// Route and partition dominate; the final optimization is frozen.
	"pseudo3d": {name: "pseudo3d", setups: 9, setup: generateSetup, ops: func(e *env) []op {
		return []op{
			flowOp("MoL S2D", e.config(e.small), runS2D),
			flowOp("C2D", e.config(e.small), runC2D),
		}
	}},
	// The analysis engines at scale: signed-off Macro-3D large tiles
	// composed into 3×3 arrays and re-verified flat. There are three
	// tiles, one per set-up, because one array's f_clk follows a single
	// critical path and varies too much from seed to seed.
	"array3x3": {name: "array3x3", setups: 3, setup: arraySetup, ops: func(e *env) []op {
		var ops []op
		for _, at := range e.tiles {
			ops = append(ops, op{key: at.key, flow: "array", tile: at.cfg.Piton.Name,
				run: func(func(string, string, *flows.State)) (outcome, error) {
					rep, err := flows.VerifyTileArray(at.cfg, at.st, e.tech, arrayN, arrayN)
					return outcome{array: rep, tile: at}, err
				}})
		}
		return ops
	}},
}

// arraySetup generates the inputs and signs off the next Macro-3D
// large tile. Each set-up moves the large tile's generator seed by a
// further 100, so the first tile at seed 1 is the CLI's default.
func arraySetup(e *env, g *gate) error {
	if err := e.generate(); err != nil {
		return err
	}
	pc := e.large
	pc.Seed += 100 * uint64(len(e.tiles))
	cfg := e.config(pc)
	o := flowOp("Macro-3D", cfg, runMacro3D)
	out, err := o.run(nil)
	if _, gerr := g.check(o.key, out, err, e.tech); gerr != nil {
		return fmt.Errorf("sign-off for the array: %w", gerr)
	}
	e.tiles = append(e.tiles, &arrayTile{
		key: fmt.Sprintf("array%dx%d/%s/gen-seed-%d", arrayN, arrayN, pc.Name, pc.Seed),
		cfg: cfg, st: out.st,
	})
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	u := rusage()
	return time.Duration(u.Utime.Nano() + u.Stime.Nano())
}

// timed runs one operation on a collected heap and returns its wall
// and CPU time.
func timed(fn func() (outcome, error)) (outcome, time.Duration, time.Duration, error) {
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	out, err := fn()
	return out, time.Since(t0), cpuTime() - c0, err
}

// quality is a pass's sign-off result over its operations.
type quality struct {
	logFclk float64 // Σ ln f_clk, MHz
	n       int
	wlM     float64
}

func (q *quality) add(fclkMHz, wlM float64) {
	q.logFclk += math.Log(fclkMHz)
	q.n++
	q.wlM += wlM
}

// fclkMHz is the geometric mean f_clk.
func (q quality) fclkMHz() float64 {
	if q.n == 0 {
		return 0
	}
	return math.Exp(q.logFclk / float64(q.n))
}
