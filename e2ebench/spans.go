package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/maya-defense/maya/internal/telemetry"
)

// epoch anchors the untraced timers.
var epoch = time.Now() //maya:wallclock benchmark timers measure the host by design; never feed program inputs

// nowNS returns host nanoseconds since epoch for the untraced timers.
//
//maya:wallclock benchmark timers measure the host by design; never feed program inputs
func nowNS() int64 { return time.Since(epoch).Nanoseconds() }

// seconds converts a nanosecond interval to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// interval is a [start, end) span of host time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once. Concurrent children (parallel training
// restarts, pool workers) overlap; sequential ones do not.
func covered(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeTrace writes the traced run's spans as Chrome trace JSON (loadable
// in Perfetto) under dir.
func writeTrace(dir, name string, tr *telemetry.Tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := telemetry.WriteChromeTrace(f, tr.Snapshot()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
