package main

import (
	"fmt"
	"math"
	"reflect"

	"macro3d/internal/core"
	"macro3d/internal/extract"
	"macro3d/internal/flows"
	"macro3d/internal/geom"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

// gate is the benchmark's correctness check. An operation fails unless
// it returns no error, every PPA field is finite, a from-scratch
// slow-corner extraction plus STA of its final state reproduces its
// minimum period exactly, and its result equals every other run of the
// same key in the invocation. Sign-off verification violations are
// counted, not failed: they are a known defect the benchmark reports.
type gate struct {
	attempted, failed int
	failures          []string

	ppa   map[string]flows.PPA
	drc   map[string]int
	array map[string]arrayRecord
	// period holds each array key's from-scratch reference period.
	period map[string]float64
}

// arrayRecord is the comparable part of an ArrayReport.
type arrayRecord struct {
	TilePeriod, ArrayPeriod float64
	ClosesAtTile            bool
	F2FBumps, StitchedNets  int
}

func newGate() *gate {
	return &gate{
		ppa:    map[string]flows.PPA{},
		drc:    map[string]int{},
		array:  map[string]arrayRecord{},
		period: map[string]float64{},
	}
}

// check counts one operation and records its failure, if any. It
// returns the sign-off verification violations of a flow run.
func (g *gate) check(key string, out outcome, runErr error, t *tech.Tech) (int, error) {
	g.attempted++
	drc, err := g.verdict(key, out, runErr, t)
	if err != nil {
		g.fail(key, err)
	}
	return drc, err
}

func (g *gate) fail(key string, err error) {
	g.failed++
	g.failures = append(g.failures, fmt.Sprintf("%s: %v", key, err))
}

// reference registers an array key's from-scratch period, which every
// VerifyTileArray call of that key must reproduce exactly.
func (g *gate) reference(key string, periodPs float64) { g.period[key] = periodPs }

func (g *gate) verdict(key string, out outcome, runErr error, t *tech.Tech) (int, error) {
	if runErr != nil {
		return 0, runErr
	}
	if out.array != nil {
		return 0, g.checkArray(key, out.array)
	}
	ppa, st := out.ppa, out.st
	if err := finitePPA(ppa); err != nil {
		return 0, err
	}
	if err := reproducePeriod(ppa, st, t); err != nil {
		return 0, err
	}
	drc, err := violations(ppa, st, t)
	if err != nil {
		return 0, err
	}
	if prev, ok := g.ppa[key]; ok && prev != *ppa {
		return drc, fmt.Errorf("PPA differs from an earlier run:\n  %+v\n  %+v", prev, *ppa)
	}
	if prev, ok := g.drc[key]; ok && prev != drc {
		return drc, fmt.Errorf("%d verification violations, an earlier run had %d", drc, prev)
	}
	g.ppa[key], g.drc[key] = *ppa, drc
	return drc, nil
}

// finitePPA rejects a PPA with any NaN or infinite field.
func finitePPA(p *flows.PPA) error {
	v := reflect.ValueOf(*p)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("PPA.%s is %v", v.Type().Field(i).Name, x)
			}
		}
	}
	return nil
}

// reproducePeriod re-extracts the final state at the slow corner and
// re-runs STA from scratch; the minimum period must match exactly.
func reproducePeriod(p *flows.PPA, st *flows.State, t *tech.Tech) error {
	slow := t.CornerScaleFor(tech.CornerSlow)
	ex := extract.Extract(st.Design, st.Routes, st.DB, slow)
	rep, err := sta.Analyze(st.Design, ex, p.MinPeriodPs, sta.Options{Corner: slow, Clock: st.Tree})
	if err != nil {
		return fmt.Errorf("re-analysis: %w", err)
	}
	if rep.MinPeriod != p.MinPeriodPs {
		return fmt.Errorf("from-scratch STA gives %v ps, the flow reported %v ps", rep.MinPeriod, p.MinPeriodPs)
	}
	return nil
}

// violations runs sign-off verification on a finished flow. For 3D
// flows the bumps come from separating the dies.
func violations(p *flows.PPA, st *flows.State, t *tech.Tech) (int, error) {
	var bumps []geom.Point
	if p.Dies == 2 {
		logic, _, err := core.Separate(&core.MoLDesign{Design: st.Design, Combined: st.Beol, FP: st.FP}, st.Routes, st.DB)
		if err != nil {
			return 0, fmt.Errorf("die separation: %w", err)
		}
		bumps = logic.Bumps
	}
	return verify.Full(st.Design, st.Die, st.Routes, bumps, t.F2F, nil).Total, nil
}

func (g *gate) checkArray(key string, a *flows.ArrayReport) error {
	if math.IsNaN(a.ArrayPeriod) || math.IsInf(a.ArrayPeriod, 0) || a.ArrayPeriod <= 0 {
		return fmt.Errorf("array period %v ps", a.ArrayPeriod)
	}
	if want, ok := g.period[key]; ok && a.ArrayPeriod != want {
		return fmt.Errorf("array period %v ps, the from-scratch replay gives %v ps", a.ArrayPeriod, want)
	}
	rec := arrayRecord{a.TilePeriod, a.ArrayPeriod, a.ClosesAtTile, a.F2FBumps, a.StitchedNets}
	if prev, ok := g.array[key]; ok && prev != rec {
		return fmt.Errorf("array report differs from an earlier run: %+v vs %+v", prev, rec)
	}
	g.array[key] = rec
	return nil
}
