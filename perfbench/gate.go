package main

import (
	"fmt"
	"strings"

	"github.com/pombm/pombm/internal/platform"
)

// gateError is a correctness violation: the run prints no metrics and the
// benchmark exits non-zero.
type gateError struct{ violations []string }

func (e *gateError) Error() string {
	return "correctness gate failed:\n  " + strings.Join(e.violations, "\n  ")
}

// gate checks a finished pass: the server's books against the callers'
// own counts, the ledger's capacity record, epoch tags, and every rotation.
func gate(c config, p *passResult, led *ledger, cls []*caller, s platform.StatsResponse) error {
	var v []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			v = append(v, fmt.Sprintf(format, args...))
		}
	}
	led.mu.Lock()
	v = append(v, led.violations...)
	led.mu.Unlock()

	var assigned, refused, released, mismatched int64
	for _, cl := range cls {
		assigned += cl.assigned
		refused += cl.refused
		released += cl.released
		mismatched += cl.epochMismatch
	}
	check(int64(s.AssignedTasks) == assigned, "stats assigned %d, callers counted %d", s.AssignedTasks, assigned)
	check(int64(s.RejectedTasks) == refused, "stats rejected %d, callers counted %d refusals", s.RejectedTasks, refused)
	check(int64(s.ReleasedWorkers) == released, "stats released %d, callers counted %d", s.ReleasedWorkers, released)
	check(s.RegisteredWorkers == c.fleet, "stats registered %d workers, fleet is %d", s.RegisteredWorkers, c.fleet)
	units := 0
	for _, u := range led.f.caps {
		units += u
	}
	out := led.outstanding()
	check(s.CapacityUnits+out == units,
		"available units %d + outstanding %d != registered capacity %d", s.CapacityUnits, out, units)
	levels := 0
	for _, n := range s.MatchLevelCounts {
		levels += n
	}
	check(levels == s.AssignedTasks, "Σ match_level_counts %d != assigned %d", levels, s.AssignedTasks)
	check(mismatched == 0, "%d assignments carried an epoch other than the serving one", mismatched)

	for i, r := range p.rots {
		check(r.resp.Rotated == c.fleet, "rotation %d rotated %d of %d workers", i, r.resp.Rotated, c.fleet)
		check(len(r.resp.Parked) == 0 && len(r.resp.Dropped) == 0 && r.resp.Skipped == 0,
			"rotation %d parked %d, dropped %d, skipped %d", i, len(r.resp.Parked), len(r.resp.Dropped), r.resp.Skipped)
	}
	check(s.Rotations == len(p.rots), "stats rotations %d, ran %d", s.Rotations, len(p.rots))
	check(s.RotatedWorkers == len(p.rots)*c.fleet, "stats rotated workers %d, want %d", s.RotatedWorkers, len(p.rots)*c.fleet)
	check(s.DroppedWorkers == 0 && s.ParkedWorkers == 0, "stats dropped %d, parked %d", s.DroppedWorkers, s.ParkedWorkers)
	check(s.Epoch == p.epoch0+int64(len(p.rots)), "serving epoch %d after %d rotations from %d", s.Epoch, len(p.rots), p.epoch0)
	if len(v) > 0 {
		return &gateError{violations: v}
	}
	return nil
}
