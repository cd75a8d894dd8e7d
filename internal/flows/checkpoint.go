package flows

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"

	"macro3d/internal/cell"
	"macro3d/internal/core"
	"macro3d/internal/geom"
	"macro3d/internal/lefdef"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/route"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

// cacheEnabled reports whether this run participates in stage
// checkpointing. Custom generators produce netlists the cache key
// cannot fingerprint, and AfterStage hooks (instrumentation, fault
// injection) may mutate state a snapshot would not capture — both
// disable caching rather than risk a wrong resume.
func (c Config) cacheEnabled() bool {
	return c.Cache != nil && c.Generator == nil && c.AfterStage == nil
}

// techFingerprint hashes the technology the run builds on: the logic
// BEOL and the standard-cell library, rendered through the LEF writer
// so any change to the built-in tables invalidates the cache.
func techFingerprint(logicMetals int) ([]byte, error) {
	t, err := tech.New28(logicMetals)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := lefdef.WriteLEF(&buf, t.Logic, cell.NewStdLib28(cell.DefaultLibOptions())); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return sum[:], nil
}

// rootKey derives the first key of a run's checkpoint chain from
// everything every stage depends on: codec version, flow kind,
// technology fingerprint and the full benchmark configuration.
//
// Deliberately excluded: Workers (routing waves are serial and the
// placer's parallel phases are bit-identical, so results do not depend
// on the worker count — pinned by TestStageCacheKeyStability),
// Obs/Trace/SelfCheck/Verify (pure observation and checking — the
// execution tracer records timelines, it never changes results),
// StageTimeout (fails runs, never changes results), and per-stage
// inputs like TargetPeriod, MacroDieMetals, F2F and
// BlockageResolution, which enter the chain as key material of the
// first checkpoint that depends on them so unrelated prefixes still
// hit. The seed is included: results depend on it, so sharing entries
// across seeds would be unsound.
func rootKey(flow string, cfg Config) (stash.Key, error) {
	fp, err := techFingerprint(cfg.LogicMetals)
	if err != nil {
		return stash.Key{}, err
	}
	e := stash.NewEnc()
	e.U32(stash.Version)
	e.Str(flow)
	e.Blob(fp)
	p := cfg.Piton
	e.Str(p.Name)
	e.Int(p.L1I)
	e.Int(p.L1D)
	e.Int(p.L2)
	e.Int(p.L3)
	e.Int(p.DataWidth)
	e.Int(p.CoreStages)
	e.Int(p.CoreWidth)
	e.Int(p.CloudDepth)
	e.Int(p.NoCs)
	e.F64(p.TargetLogicArea)
	e.F64(p.MacroProcess.ClkQScale)
	e.F64(p.MacroProcess.EnergyScale)
	e.F64(p.MacroProcess.LeakageScale)
	e.U64(p.Seed)
	e.U64(cfg.Seed)
	e.Int(cfg.LogicMetals)
	e.F64(cfg.Util)
	e.Int(cfg.Retry.MaxAttempts)
	// AnalyticPlace selects a different placement engine with
	// different results; analytic and default runs never alias.
	e.Bool(cfg.AnalyticPlace)
	return stash.NewKey(e.Bytes()), nil
}

// stackMaterial is the key material of the first checkpoint that
// depends on the 3D stack: the macro-die metal count and the effective
// F2F via technology, which shape the combined BEOL the prepare stage
// builds.
func stackMaterial(cfg Config, t *tech.Tech) []byte {
	f2f := t.F2F
	if cfg.F2F != nil {
		f2f = *cfg.F2F
	}
	e := stash.NewEnc()
	e.Int(cfg.MacroDieMetals)
	e.F64(f2f.Pitch)
	e.F64(f2f.Size)
	e.F64(f2f.Height)
	e.F64(f2f.R)
	e.F64(f2f.C)
	return e.Bytes()
}

// resolutionMaterial keys the S2D/C2D pseudo and partition
// checkpoints on the partial-blockage rasterization pitch.
func resolutionMaterial(cfg Config) []byte {
	e := stash.NewEnc()
	e.F64(cfg.BlockageResolution)
	return e.Bytes()
}

// checkpoint is one cacheable region of a flow: a name (also the span
// and trace label of a hit), key material covering the region's own
// inputs beyond the upstream chain, and the snapshot codec. load must
// fully validate before mutating any state — a failed load falls back
// to running the region, so a half-applied snapshot would corrupt it.
type checkpoint struct {
	name     string
	material []byte
	save     func(*stash.Enc) error
	load     func(*stash.Dec) error
}

// counter returns a named run counter, or nil (nil counters no-op).
func (r *runner) counter(name, help string) *obs.Counter {
	if reg := r.cfg.Obs.Registry(); reg != nil {
		return reg.Counter(name, help)
	}
	return nil
}

func (r *runner) stashHits() *obs.Counter {
	return r.counter("stash_hits_total", "Stage-cache hits (snapshots loaded instead of running the stage).")
}

func (r *runner) stashMisses() *obs.Counter {
	return r.counter("stash_misses_total", "Stage-cache misses (stage ran and its snapshot was stored).")
}

func (r *runner) stashBytes() *obs.Counter {
	return r.counter("stash_bytes_total", "Snapshot payload bytes read on hits and written on misses.")
}

func (r *runner) stashErrors() *obs.Counter {
	return r.counter("stash_errors_total", "Stage-cache failures: corrupt loads, store errors, verify mismatches.")
}

// checkpointed runs a cacheable region: on a hit the snapshot is
// loaded and the region skipped; on a miss (or a corrupt snapshot,
// which is evicted) the region runs and its snapshot is stored. Cache
// failures never fail a flow — except under CacheVerify, where a hit
// re-runs the region and a snapshot that is not bit-identical to the
// re-run state is a hard error.
func (r *runner) checkpointed(cp checkpoint, body func() error) error {
	if !r.caching {
		return body()
	}
	key := r.key.Derive(cp.name, cp.material)
	r.key = key

	if payload, ok := r.cfg.Cache.Get(key); ok {
		if r.cfg.CacheVerify {
			return r.verifyHit(cp, key, payload, body)
		}
		sp := r.span.Child(cp.name, obs.KV("cache", "hit"), obs.KV("bytes", len(payload)))
		r.cur = sp
		csl := r.stages.Begin("cache", cp.name+" (cache-load)")
		err := contain(func() error { return cp.load(stash.NewDec(payload)) })
		csl.End(trace.N("hit", 1), trace.N("bytes", int64(len(payload))))
		if err == nil {
			sp.End()
			r.cur = nil
			r.trace.Stages = append(r.trace.Stages, StageRecord{
				Stage: cp.name, Attempt: 1, Seed: r.cfg.Seed,
				Duration: sp.Duration(), Cached: true,
			})
			r.stashHits().Inc()
			r.stashBytes().Add(uint64(len(payload)))
			r.cfg.Obs.Sample()
			return nil
		}
		// A snapshot that decodes or validates badly is treated
		// exactly like corruption: evict, record, run the region.
		sp.SetAttr("err", err.Error())
		sp.End()
		r.cur = nil
		r.record(cp.name, 1, r.cfg.Seed, sp.Duration(), false,
			fmt.Errorf("cache load: %w", err))
		r.cfg.Cache.Evict(key)
		r.stashErrors().Inc()
		r.stashMisses().Inc()
		return r.runAndStore(cp, key, body)
	}
	r.stashMisses().Inc()
	return r.runAndStore(cp, key, body)
}

// runAndStore executes the region and stores its snapshot. Store
// failures (encode panic, full disk) only count an error — the flow's
// own result is already computed and stands.
func (r *runner) runAndStore(cp checkpoint, key stash.Key, body func() error) error {
	if err := body(); err != nil {
		return err
	}
	enc := stash.NewEnc()
	if err := contain(func() error { return cp.save(enc) }); err != nil {
		r.stashErrors().Inc()
		return nil
	}
	if err := r.cfg.Cache.Put(key, enc.Bytes()); err != nil {
		r.stashErrors().Inc()
		return nil
	}
	r.stashBytes().Add(uint64(enc.Len()))
	return nil
}

// verifyHit is the paranoia mode: the region re-runs, its state is
// re-encoded, and anything short of bit-identity with the cached
// snapshot evicts the entry and fails the run.
func (r *runner) verifyHit(cp checkpoint, key stash.Key, payload []byte, body func() error) error {
	if err := body(); err != nil {
		return err
	}
	enc := stash.NewEnc()
	if err := contain(func() error { return cp.save(enc) }); err != nil {
		r.cfg.Cache.Evict(key)
		r.stashErrors().Inc()
		verr := fmt.Errorf("cache verify: re-encode: %w", err)
		r.record(cp.name, 1, r.cfg.Seed, 0, false, verr)
		return r.fail(cp.name, r.cfg.Seed, 1, verr)
	}
	if !bytes.Equal(enc.Bytes(), payload) {
		r.cfg.Cache.Evict(key)
		r.stashErrors().Inc()
		verr := fmt.Errorf("cache verify: region %q re-ran to state differing from the cached snapshot (%d vs %d bytes)",
			cp.name, enc.Len(), len(payload))
		r.record(cp.name, 1, r.cfg.Seed, 0, false, verr)
		return r.fail(cp.name, r.cfg.Seed, 1, verr)
	}
	r.stashHits().Inc()
	r.counter("stash_verified_total", "Cache hits re-run and confirmed bit-identical under -cache-verify.").Inc()
	r.stashBytes().Add(uint64(len(payload)))
	return nil
}

// ---- shared wire helpers ----

// resolveMaster maps a snapshotted master name back to a library cell.
// cur short-circuits the common unchanged case; names with the
// macro-die suffix resolve through CellForDie so post-partition designs
// (whose per-die clones are not library members) round-trip. mdCache
// shares one clone per name within a single load.
func resolveMaster(d *netlist.Design, cur *cell.Cell, name string, mdCache map[string]*cell.Cell) (*cell.Cell, error) {
	if cur != nil && cur.Name == name {
		return cur, nil
	}
	if m := d.Lib.Cell(name); m != nil {
		return m, nil
	}
	if base, ok := strings.CutSuffix(name, tech.MDSuffix); ok {
		if c, ok := mdCache[name]; ok {
			return c, nil
		}
		if m := d.Lib.Cell(base); m != nil {
			c := core.CellForDie(m, netlist.MacroDie)
			mdCache[name] = c
			return c, nil
		}
	}
	return nil, fmt.Errorf("snapshot references unknown master %q", name)
}

func encodePinRef(e *stash.Enc, ref netlist.PinRef) {
	var flags uint8
	if ref.Inst != nil {
		flags |= 1
	}
	if ref.Port != nil {
		flags |= 2
	}
	e.U8(flags)
	if ref.Inst != nil {
		e.U32(uint32(ref.Inst.ID))
		e.Str(ref.Pin)
	}
	if ref.Port != nil {
		e.U32(uint32(ref.Port.ID))
	}
}

type pinRefWire struct {
	hasInst bool
	instID  uint32
	pin     string
	hasPort bool
	portID  uint32
}

func decodePinRefWire(dec *stash.Dec) pinRefWire {
	var w pinRefWire
	flags := dec.U8()
	w.hasInst = flags&1 != 0
	w.hasPort = flags&2 != 0
	if w.hasInst {
		w.instID = dec.U32()
		w.pin = dec.Str()
	}
	if w.hasPort {
		w.portID = dec.U32()
	}
	return w
}

func (w pinRefWire) validate(nInst, nPort int) error {
	if w.hasInst && int(w.instID) >= nInst {
		return fmt.Errorf("pin ref instance %d out of range (%d instances)", w.instID, nInst)
	}
	if w.hasPort && int(w.portID) >= nPort {
		return fmt.Errorf("pin ref port %d out of range (%d ports)", w.portID, nPort)
	}
	return nil
}

// resolve builds the live PinRef; call only after validate and after
// any appended instances exist.
func (w pinRefWire) resolve(d *netlist.Design) netlist.PinRef {
	var ref netlist.PinRef
	if w.hasInst {
		ref.Inst = d.Instances[w.instID]
		ref.Pin = w.pin
	}
	if w.hasPort {
		ref.Port = d.Ports[w.portID]
	}
	return ref
}

// ---- placement snapshots ----

type instStateWire struct {
	name   string // appended instances only
	master string
	x, y   float64
	orient uint8
	flags  uint8 // bit 0 Fixed, bit 1 Placed
	die    uint8

	resolved *cell.Cell
}

func encodeInstState(e *stash.Enc, inst *netlist.Instance, withName bool) {
	if withName {
		e.Str(inst.Name)
	}
	e.Str(inst.Master.Name)
	e.F64(inst.Loc.X)
	e.F64(inst.Loc.Y)
	e.U8(uint8(inst.Orient))
	var flags uint8
	if inst.Fixed {
		flags |= 1
	}
	if inst.Placed {
		flags |= 2
	}
	e.U8(flags)
	e.U8(uint8(inst.Die))
}

func decodeInstState(dec *stash.Dec, withName bool) instStateWire {
	var w instStateWire
	if withName {
		w.name = dec.Str()
	}
	w.master = dec.Str()
	w.x = dec.F64()
	w.y = dec.F64()
	w.orient = dec.U8()
	w.flags = dec.U8()
	w.die = dec.U8()
	return w
}

func (w instStateWire) apply(inst *netlist.Instance) {
	if w.resolved != nil {
		inst.Master = w.resolved
	}
	inst.Loc = geom.Pt(w.x, w.y)
	inst.Orient = geom.Orient(w.orient)
	inst.Fixed = w.flags&1 != 0
	inst.Placed = w.flags&2 != 0
	inst.Die = netlist.Die(w.die)
}

// placementCheckpoint snapshots the full placement state of every
// instance (location, orientation, die, flags, master). Used for the
// place stage of the 2D and Macro-3D flows and for the S2D/C2D tier
// partition, none of which add or remove instances.
func placementCheckpoint(name string, material []byte, d *netlist.Design) checkpoint {
	return checkpoint{
		name:     name,
		material: material,
		save: func(e *stash.Enc) error {
			e.Int(len(d.Instances))
			for _, inst := range d.Instances {
				encodeInstState(e, inst, false)
			}
			return nil
		},
		load: func(dec *stash.Dec) error {
			n := dec.Int()
			if dec.Err() == nil && n != len(d.Instances) {
				return fmt.Errorf("placement snapshot has %d instances, design has %d", n, len(d.Instances))
			}
			states := make([]instStateWire, 0, len(d.Instances))
			for i := 0; i < n && dec.Err() == nil; i++ {
				states = append(states, decodeInstState(dec, false))
			}
			if err := dec.Done(); err != nil {
				return err
			}
			mdCache := map[string]*cell.Cell{}
			for i := range states {
				m, err := resolveMaster(d, d.Instances[i].Master, states[i].master, mdCache)
				if err != nil {
					return err
				}
				states[i].resolved = m
			}
			for i := range states {
				states[i].apply(d.Instances[i])
			}
			return nil
		},
	}
}

// pseudoCheckpoint snapshots the net effect of the S2D/C2D pseudo
// phase on the real design: each standard cell's transferred location,
// placed flag and drive choice. The pseudo design itself is scratch
// state that phase B never reads, so it is not captured — on a hit the
// whole shrunk/scaled P&R and the transfer are skipped.
func pseudoCheckpoint(material []byte, d *netlist.Design) checkpoint {
	return checkpoint{
		name:     "pseudo",
		material: material,
		save: func(e *stash.Enc) error {
			cells := d.StdCells()
			e.Int(len(cells))
			for _, c := range cells {
				e.Str(c.Master.Name)
				e.F64(c.Loc.X)
				e.F64(c.Loc.Y)
				e.Bool(c.Placed)
			}
			return nil
		},
		load: func(dec *stash.Dec) error {
			cells := d.StdCells()
			n := dec.Int()
			if dec.Err() == nil && n != len(cells) {
				return fmt.Errorf("pseudo snapshot has %d cells, design has %d", n, len(cells))
			}
			type cw struct {
				m    *cell.Cell
				x, y float64
				p    bool
			}
			states := make([]cw, 0, len(cells))
			mdCache := map[string]*cell.Cell{}
			for i := 0; i < n && dec.Err() == nil; i++ {
				name := dec.Str()
				x, y := dec.F64(), dec.F64()
				p := dec.Bool()
				if dec.Err() != nil {
					break
				}
				m, err := resolveMaster(d, cells[i].Master, name, mdCache)
				if err != nil {
					return err
				}
				states = append(states, cw{m: m, x: x, y: y, p: p})
			}
			if err := dec.Done(); err != nil {
				return err
			}
			for i, s := range states {
				cells[i].Master = s.m
				cells[i].Loc = geom.Pt(s.x, s.y)
				cells[i].Placed = s.p
			}
			return nil
		},
	}
}

// ---- routing snapshots ----

func encodeResult(e *stash.Enc, res *route.Result) {
	e.Int(len(res.Routes))
	for _, nr := range res.Routes {
		e.Bool(nr != nil)
		if nr == nil {
			continue
		}
		e.Int(len(nr.Segments))
		for _, s := range nr.Segments {
			e.Int(s.A.X)
			e.Int(s.A.Y)
			e.Int(s.A.L)
			e.Int(s.B.X)
			e.Int(s.B.Y)
			e.Int(s.B.L)
		}
		e.Int(len(nr.PinNode))
		for _, p := range nr.PinNode {
			e.Int(p.X)
			e.Int(p.Y)
			e.Int(p.L)
		}
		e.F64(nr.WL)
		e.Int(nr.Vias)
		e.Int(nr.F2F)
	}
	e.F64(res.WL)
	e.F64s(res.WLPerLayer)
	e.Int(res.Vias)
	e.Int(res.F2FBumps)
	e.Int(res.Overflow)
	e.F64(res.OverflowWL)
}

type netRouteWire struct {
	present bool
	segs    []route.Seg
	pins    []route.Node
	wl      float64
	vias    int
	f2f     int
}

type resultWire struct {
	routes     []netRouteWire
	wl         float64
	perLayer   []float64
	vias       int
	f2fBumps   int
	overflow   int
	overflowWL float64
}

func decodeResultWire(dec *stash.Dec) resultWire {
	var w resultWire
	n := dec.Int()
	for i := 0; i < n && dec.Err() == nil; i++ {
		var nr netRouteWire
		nr.present = dec.Bool()
		if nr.present {
			ns := dec.Int()
			for j := 0; j < ns && dec.Err() == nil; j++ {
				nr.segs = append(nr.segs, route.Seg{
					A: route.Node{X: dec.Int(), Y: dec.Int(), L: dec.Int()},
					B: route.Node{X: dec.Int(), Y: dec.Int(), L: dec.Int()},
				})
			}
			np := dec.Int()
			for j := 0; j < np && dec.Err() == nil; j++ {
				nr.pins = append(nr.pins, route.Node{X: dec.Int(), Y: dec.Int(), L: dec.Int()})
			}
			nr.wl = dec.F64()
			nr.vias = dec.Int()
			nr.f2f = dec.Int()
		}
		w.routes = append(w.routes, nr)
	}
	w.wl = dec.F64()
	w.perLayer = dec.F64s()
	w.vias = dec.Int()
	w.f2fBumps = dec.Int()
	w.overflow = dec.Int()
	w.overflowWL = dec.F64()
	return w
}

// build materializes the decoded result against the live design;
// len(w.routes) must already be validated == len(d.Nets).
func (w resultWire) build(d *netlist.Design) *route.Result {
	res := &route.Result{
		Routes:     make([]*route.NetRoute, len(w.routes)),
		WL:         w.wl,
		WLPerLayer: w.perLayer,
		Vias:       w.vias,
		F2FBumps:   w.f2fBumps,
		Overflow:   w.overflow,
		OverflowWL: w.overflowWL,
	}
	for i, nr := range w.routes {
		if !nr.present {
			continue
		}
		res.Routes[i] = &route.NetRoute{
			Net: d.Nets[i], Segments: nr.segs, PinNode: nr.pins,
			WL: nr.wl, Vias: nr.vias, F2F: nr.f2f,
		}
	}
	return res
}

// routeCheckpoint snapshots the routing result plus the DB's dynamic
// state (usage, negotiation history, F2F bump usage — the history is
// not derivable from the final routes but feeds downstream ECO cost).
// build reconstructs the empty DB on the load path exactly as the
// route stage would.
func routeCheckpoint(st *State, d *netlist.Design, material []byte, build func()) checkpoint {
	return checkpoint{
		name:     StageRoute,
		material: material,
		save: func(e *stash.Enc) error {
			encodeResult(e, st.Routes)
			u, h, f := st.DB.DynState()
			e.I32s(u)
			e.F32s(h)
			e.I32s(f)
			return nil
		},
		load: func(dec *stash.Dec) error {
			w := decodeResultWire(dec)
			u := dec.I32s()
			h := dec.F32s()
			f := dec.I32s()
			if err := dec.Done(); err != nil {
				return err
			}
			if len(w.routes) != len(d.Nets) {
				return fmt.Errorf("route snapshot covers %d nets, design has %d", len(w.routes), len(d.Nets))
			}
			build()
			if err := st.DB.SetDynState(u, h, f); err != nil {
				return err
			}
			st.Routes = w.build(d)
			return nil
		},
	}
}
