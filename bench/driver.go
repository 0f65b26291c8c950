package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The timed path speaks to the daemon's process boundary and nothing else:
// pre-encoded bytes are POSTed, reply bytes are kept, and everything that
// costs CPU (decoding, the oracle check, percentiles) happens after the
// window, so client CPU inside it is small and constant and the numbers
// measure pdpd, not the generator.

const (
	statusTransport = 0  // no HTTP reply (connection error, client timeout)
	statusDropped   = -1 // open-loop arrival already past its deadline when a connection came free
)

// record is one call of a window. Times are nanoseconds since the window
// opened.
type record struct {
	call   int   // index into the stream (calls, or writes for the admin writer)
	status int   // HTTP status, or statusTransport / statusDropped
	due    int64 // when the call was due: the arrival instant (open loop, writer) or the send instant (closed loop)
	late   int64 // how long after max(due, connection free) the generator actually sent
	done   int64 // when the reply had been read
	reply  []byte
}

// newConn is one keep-alive connection to the daemon. The benchmark opens
// at most maxConns of them for decisions.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		// A backstop only: deadlines are judged from recorded times.
		Timeout: 10 * time.Second,
	}
}

// post sends one body over c and reads the whole reply.
func post(c *http.Client, url, contentType string, body []byte, budgetMs int64) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return statusTransport, nil
	}
	req.Header.Set("Content-Type", contentType)
	if budgetMs > 0 {
		req.Header.Set("X-Deadline-Budget-Ms", strconv.FormatInt(budgetMs, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return statusTransport, nil
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return statusTransport, nil
	}
	return resp.StatusCode, reply
}

// window is one timed run of a workload's traffic against a daemon.
type window struct {
	w       spec
	url     string // daemon base URL
	calls   []call
	cyclic  bool
	writes  [][]byte
	seconds float64
	seed    int64
}

// traffic is what a window recorded.
type traffic struct {
	decisions []record // one per decision call, all connections merged
	writes    []record // one per admin write
	elapsed   float64  // wall seconds from window open to the last reply
}

// sleepUntil blocks until the instant ns nanoseconds after start. It
// sleeps in the kernel, not in the Go runtime: runtime timers fire from
// epoll_wait, whose timeout has millisecond granularity, and ran the
// generator 0.5-1 ms late at these arrival rates.
func sleepUntil(start time.Time, ns int64) {
	if d := time.Duration(ns) - time.Since(start); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by less than the clock reads
	}
}

// poissonSchedule draws the open-loop arrival instants of one window.
func poissonSchedule(seed int64, rate, seconds float64) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
	var at float64
	var out []int64
	for {
		at += rng.ExpFloat64() / rate
		if at >= seconds {
			return out
		}
		out = append(out, int64(at*1e9))
	}
}

// run drives the window's traffic and returns every record. It starts
// w.clients decision goroutines (plus one writer in churn.mixed), each
// with its own connection, and waits for all of them.
func (win window) run() traffic {
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		perConn = make([][]record, win.w.clients)
		writes  []record
		sched   []int64
	)
	if win.w.openRate > 0 {
		sched = poissonSchedule(win.seed, win.w.openRate, win.seconds)
	}
	url := win.url + win.w.endpoint()
	budget := int64(win.w.budgetMs())
	windowNs := int64(win.seconds * 1e9)
	start := time.Now()
	for c := 0; c < win.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn()
			defer cn.CloseIdleConnections()
			recs := make([]record, 0, 1<<16)
			for {
				i := int(next.Add(1) - 1)
				rec := record{call: i}
				free := int64(time.Since(start))
				if sched != nil {
					if i >= len(sched) {
						break
					}
					rec.due = sched[i]
					sleepUntil(start, rec.due)
				} else {
					if free >= windowNs || (!win.cyclic && i >= len(win.calls)) {
						break
					}
					rec.due = free
				}
				sent := int64(time.Since(start))
				rec.late = sent - max(rec.due, free)
				left := budget - (sent-rec.due)/1e6
				if left <= 0 {
					rec.status, rec.done = statusDropped, sent
				} else {
					rec.status, rec.reply = post(cn, url, "application/xml", win.calls[i%len(win.calls)].body, left)
					rec.done = int64(time.Since(start))
				}
				recs = append(recs, rec)
			}
			perConn[c] = recs
		}(c)
	}
	if win.w.writesPerS > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := newConn()
			defer cn.CloseIdleConnections()
			interval := int64(1e9 / win.w.writesPerS)
			for k := 0; int64(k)*interval < windowNs; k++ {
				rec := record{call: k % len(win.writes), due: int64(k) * interval}
				free := int64(time.Since(start))
				sleepUntil(start, rec.due)
				sent := int64(time.Since(start))
				rec.late = sent - max(rec.due, free)
				rec.status, rec.reply = post(cn, win.url+"/admin/policy", "application/json", win.writes[rec.call], 0)
				rec.done = int64(time.Since(start))
				writes = append(writes, rec)
			}
		}()
	}
	wg.Wait()
	t := traffic{writes: writes, elapsed: time.Since(start).Seconds()}
	for _, recs := range perConn {
		t.decisions = append(t.decisions, recs...)
	}
	return t
}

// tally is the verified outcome of a window: every decision attempted is
// either conclusive and oracle-correct, or failed for exactly one reason.
type tally struct {
	attempted int // individual decisions: a batch call counts its 64
	correct   int // conclusive, equal to the oracle's answer, and inside the deadline
	// Failure reasons, in the order they are tested.
	dropped      int // open-loop arrival never sent: its deadline had passed
	transport    int // no HTTP reply, or a status other than 200/429/503
	shed         int // 429 or 503: admission control refused the call
	missed       int // answered after the deadline
	inconclusive int // Indeterminate, NotApplicable or undecodable
	wrong        int // conclusive and different from the oracle: the only kind that fails the command

	writes, writesOK int // admin writes attempted, and acknowledged with 200

	latency      []int64 // per decision call, due → reply read, sorted
	writeLatency []int64 // per admin write, due → 200, sorted
	lateness     []int64 // per sent call and write, generator lateness, sorted
	firstWrong   string
}

func (t *tally) failed() int { return t.attempted - t.correct + t.writes - t.writesOK }

// verify decodes every reply and checks it against the oracle.
func verify(w spec, calls []call, tr traffic) *tally {
	t := &tally{}
	budgetNs := int64(w.budgetMs()) * 1e6
	for _, rec := range tr.decisions {
		c := calls[rec.call%len(calls)]
		n := len(c.expect)
		t.attempted += n
		if rec.status == statusDropped {
			t.dropped += n
			continue
		}
		t.lateness = append(t.lateness, rec.late)
		switch {
		case rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable:
			t.shed += n
			continue
		case rec.status != http.StatusOK:
			t.transport += n
			continue
		}
		t.latency = append(t.latency, rec.done-rec.due)
		got := decodeReply(rec.reply, n)
		// Wrong answers are counted even when late: a late wrong answer
		// is still a wrong answer.
		onTime := rec.done-rec.due <= budgetNs
		for i, want := range c.expect {
			switch {
			case got[i] == other:
				t.inconclusive++
			case got[i] != want:
				t.wrong++
				if t.firstWrong == "" {
					t.firstWrong = fmt.Sprintf("call %d position %d: got %s, oracle says %s", rec.call, i, got[i], want)
				}
			case !onTime:
				t.missed++
			default:
				t.correct++
			}
		}
	}
	for _, rec := range tr.writes {
		t.writes++
		t.lateness = append(t.lateness, rec.late)
		if rec.status != http.StatusOK {
			continue
		}
		t.writesOK++
		t.writeLatency = append(t.writeLatency, rec.done-rec.due)
	}
	slices.Sort(t.latency)
	slices.Sort(t.writeLatency)
	slices.Sort(t.lateness)
	return t
}

// ms renders nanoseconds as milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }
