package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
)

// window is a declared fault window: it opens the instant its fault fires
// and closes settle after the fault's repair returns. A failed decision is
// excused only if its [due, done] interval intersects a window.
type window struct {
	name     string
	from, to time.Time // zero until the fault fires / the repair returns
}

// covers reports whether s's [due, done] interval intersects the window.
// A window that never opened covers nothing; one whose repair never
// returned stays open.
func (w *window) covers(s sample) bool {
	if w.from.IsZero() || s.done.Before(w.from) {
		return false
	}
	return w.to.IsZero() || !s.due.After(w.to)
}

// opening wraps a fault's injection so the window opens as it fires.
func (w *window) opening(inject chaos.Action) chaos.Action {
	return func(ctx context.Context) error {
		w.from = time.Now()
		return inject(ctx)
	}
}

// closing wraps a fault's repair so the window closes settle after the
// repair returns.
func (w *window) closing(repair chaos.Action) chaos.Action {
	return func(ctx context.Context) error {
		err := repair(ctx)
		w.to = time.Now().Add(settle)
		return err
	}
}

// verdict splits a run's decisions by the windows their intervals
// intersect. A decision inside several windows is charged to the first.
type verdict struct {
	decided, excused []int // per window: decisions charged to it, and of those the failed
	outside          int   // decisions outside every window
	unexcused        int   // failed decisions outside every window
}

func classify(samples []sample, windows []*window) verdict {
	v := verdict{decided: make([]int, len(windows)), excused: make([]int, len(windows))}
	for _, s := range samples {
		i := 0
		for i < len(windows) && !windows[i].covers(s) {
			i++
		}
		switch {
		case i < len(windows):
			v.decided[i]++
			if s.failed() {
				v.excused[i]++
			}
		case s.failed():
			v.outside++
			v.unexcused++
		default:
			v.outside++
		}
	}
	return v
}

// print reports each window with its excused failures, then the failures
// no window excuses, with instants as offsets from start.
func (v verdict) print(w io.Writer, windows []*window, start time.Time) {
	offset := func(t time.Time) string {
		if t.IsZero() {
			return "never"
		}
		return t.Sub(start).Round(time.Millisecond).String()
	}
	for i, win := range windows {
		fmt.Fprintf(w, "loadd: window %q [%s, %s]: %d decisions, %d failed (excused)\n",
			win.name, offset(win.from), offset(win.to), v.decided[i], v.excused[i])
	}
	fmt.Fprintf(w, "loadd: outside fault windows: %d decisions, unexcused failures: %d\n", v.outside, v.unexcused)
}
