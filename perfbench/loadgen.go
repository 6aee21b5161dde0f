package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"vtmig/internal/serve"
)

// The load generator is open loop: every request has a due time fixed by
// the offered rate, and its latency counts from that due time, so a stall
// also charges the requests queued behind it. Requests of one lane go out
// over the lane's own connections (at most one per sender goroutine); a
// sender that is behind sends the next due request at once.
//
// The generator shares the process and its cores with the system under
// test, so it is itself sometimes late: its timers wake up late and the
// host deschedules it, more so while the server keeps the cores busy.
// Latency counts from the due time all the same, so server work that
// delays the generator still shows. A request is ready at its due time
// or, when every connection of its lane was busy, when one came free;
// besides the lateness (send minus due), each phase reports the
// generator's own slip (send minus ready), so timer noise stays visible.

// reqHeader carries the request's index, and spanHeader its root span, to
// the traced handler wrapper.
const (
	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

// plannedReq is one generated request.
type plannedReq struct {
	body []byte
	req  serve.QuoteRequest
	due  time.Duration // offset from the phase start
	read bool          // serve-mixed: sent to the replica
}

// outcome is what happened to one request.
type outcome struct {
	sent      bool
	ok        bool
	due, at   time.Time // due time and actual send time
	ready     time.Time // due time, or later when no connection was free
	done      time.Time
	resp      serve.QuoteResponse
	err       string
	ackAtSend int // primary's acknowledged rounds when a read was sent
	ackAtDone int // ... and when its answer arrived
	span      int64
}

// latency is the time from due to answer.
func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// lane is a set of requests sent to one URL by a fixed number of senders.
type lane struct {
	url     string
	idx     []int // indices into the plan, in due order
	senders int
}

// loadOpts tunes one open-loop phase.
type loadOpts struct {
	// abortLate stops the phase once a request would go out this late:
	// the backlog is growing without bound.
	abortLate time.Duration
	// ack, when set, reads the primary's acknowledged round count around
	// every read (serve-mixed staleness and its bound check).
	ack func() int
	tr  *tracer
	// base numbers this load's requests in trace spans: request i is
	// base+i.
	base int
}

// randRound draws one round from vtmig-loadgen's mix: 1–3 VMUs with
// α ∈ [5, 20] and 100–300 MB, at 200–1000 m.
func randRound(rng *rand.Rand) serve.QuoteRequest {
	vmus := make([]serve.QuoteVMU, 1+rng.Intn(3))
	for i := range vmus {
		vmus[i] = serve.QuoteVMU{ID: i, Alpha: 5 + 15*rng.Float64(), DataMB: 100 + 200*rng.Float64()}
	}
	return serve.QuoteRequest{VMUs: vmus, DistanceM: 200 + 800*rng.Float64()}
}

// planLoad generates n requests at the given rate; readShare of them (by
// a seeded draw) are reads.
func planLoad(rng *rand.Rand, n int, rate, readShare float64) []plannedReq {
	plan := make([]plannedReq, n)
	for i := range plan {
		r := randRound(rng)
		body, err := json.Marshal(r)
		if err != nil {
			panic(err) // plain structs of finite floats always encode
		}
		plan[i] = plannedReq{
			body: body, req: r,
			due:  time.Duration(float64(i) / rate * float64(time.Second)),
			read: readShare > 0 && rng.Float64() < readShare,
		}
	}
	return plan
}

// lanesFor splits a plan into its write lane and, when it has reads, its
// read lane.
func lanesFor(plan []plannedReq, writeURL, readURL string, writeSenders int) []lane {
	w := lane{url: writeURL, senders: writeSenders}
	r := lane{url: readURL, senders: 1}
	for i, p := range plan {
		if p.read {
			r.idx = append(r.idx, i)
		} else {
			w.idx = append(w.idx, i)
		}
	}
	if len(r.idx) == 0 {
		return []lane{w}
	}
	return []lane{w, r}
}

// openLoop sends the plan and waits for every answer. It reports whether
// the phase was aborted for lateness; requests never sent then have
// sent == false.
func openLoop(plan []plannedReq, lanes []lane, o loadOpts) ([]outcome, bool, error) {
	outs := make([]outcome, len(plan))
	var aborted atomic.Bool
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var errs []error
	fail := func(err error) {
		aborted.Store(true)
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	start := time.Now().Add(2 * time.Millisecond)
	for _, l := range lanes {
		client := &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     l.senders,
				MaxIdleConnsPerHost: l.senders,
				DisableCompression:  true,
			},
			Timeout: 30 * time.Second,
		}
		var cursor atomic.Int64
		for s := 0; s < l.senders; s++ {
			wg.Add(1)
			go func(l lane) {
				defer wg.Done()
				w, err := newWaker()
				if err != nil {
					fail(err)
					return
				}
				defer w.close()
				free := start // when this sender's connection last came free
				for !aborted.Load() {
					k := int(cursor.Add(1)) - 1
					if k >= len(l.idx) {
						return
					}
					i := l.idx[k]
					due := start.Add(plan[i].due)
					if err := w.until(due); err != nil {
						fail(err)
						return
					}
					if o.abortLate > 0 && time.Since(due) > o.abortLate {
						aborted.Store(true)
						return
					}
					ready := due
					if free.After(due) {
						ready = free
					}
					outs[i] = send(client, l.url, i, plan[i], due, ready, o)
					free = outs[i].done
				}
			}(l)
		}
		defer client.CloseIdleConnections()
	}
	wg.Wait()
	return outs, aborted.Load(), errors.Join(errs...)
}

// waker blocks its sender until a due time. Go's own timers wake an
// otherwise idle process up to a millisecond late, because the runtime's
// poller waits in whole milliseconds, and nanosleep wakes a thread up to
// its timer slack late (50 µs by default on Linux, and where in that
// range depends on what else the host is doing); either would be a large
// and unsteady part of a sub-millisecond quote's latency. A timerfd
// timer has no slack: a blocking read of it returns within microseconds
// of the due time and, like a timer, burns no CPU while it waits.
type waker struct{ fd int }

func newWaker() (*waker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &waker{fd: int(fd)}, nil
}

const clockMonotonic = 1

// until blocks until t.
func (w *waker) until(t time.Time) error {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // interval 0, value d
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		var expirations [8]byte
		if _, err := syscall.Read(w.fd, expirations[:]); err != nil && err != syscall.EINTR {
			return fmt.Errorf("reading timerfd: %w", err)
		}
	}
	return nil
}

func (w *waker) close() { syscall.Close(w.fd) }

// send issues one quote and records its outcome.
func send(client *http.Client, url string, i int, p plannedReq, due, ready time.Time, o loadOpts) outcome {
	out := outcome{sent: true, due: due, ready: ready}
	if o.ack != nil && p.read {
		out.ackAtSend = o.ack()
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(p.body))
	if err != nil {
		out.err = err.Error()
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if o.tr != nil {
		out.span = o.tr.id()
		req.Header.Set(reqHeader, strconv.Itoa(o.base+i))
		req.Header.Set(spanHeader, strconv.FormatInt(out.span, 10))
	}
	out.at = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		out.done = time.Now()
		out.err = err.Error()
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.done = time.Now()
	if o.ack != nil && p.read {
		out.ackAtDone = o.ack()
	}
	switch {
	case err != nil:
		out.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		if err := json.Unmarshal(body, &out.resp); err != nil {
			out.err = "decoding quote response: " + err.Error()
		} else {
			out.ok = true
		}
	}
	if o.tr != nil {
		o.tr.leaf("loadgen.wait", out.span, int64(o.base+i), due, out.at, 0)
		o.tr.add(out.span, "loadgen.request", 0, int64(o.base+i), due, out.done, 0)
	}
	return out
}

// phaseStats is the open-loop accounting of one phase, or of one side
// (reads or writes) of it. Its distributions are histograms, so a whole
// run's accounting takes constant memory and does not grow the heap the
// run reports.
type phaseStats struct {
	sent, ok, failed, unsent int
	// lat is every sent request's latency in ms; a failed request counts
	// as +Inf, so it misses any latency limit.
	lat hist
	// late is every sent request's lateness (send time minus due time)
	// in ms, and slip the generator's own part of it (send time minus
	// ready time).
	late, slip hist
}

// add merges another phase's accounting into ps.
func (ps *phaseStats) add(o *phaseStats) {
	ps.sent += o.sent
	ps.ok += o.ok
	ps.failed += o.failed
	ps.unsent += o.unsent
	ps.lat.merge(&o.lat)
	ps.late.merge(&o.late)
	ps.slip.merge(&o.slip)
}

// account summarizes the outcomes the filter selects.
func account(plan []plannedReq, outs []outcome, keep func(plannedReq) bool) *phaseStats {
	ps := new(phaseStats)
	for i, o := range outs {
		if !keep(plan[i]) {
			continue
		}
		if !o.sent {
			ps.unsent++
			continue
		}
		ps.sent++
		ps.late.add(ms(o.at.Sub(o.due)))
		ps.slip.add(ms(o.at.Sub(o.ready)))
		if o.ok {
			ps.ok++
		} else {
			ps.failed++
		}
		ps.lat.add(latencyMs(o))
	}
	return ps
}

// latencies returns the latency in ms of every sent request the filter
// selects, exactly.
func latencies(plan []plannedReq, outs []outcome, keep func(plannedReq) bool) []float64 {
	var lat []float64
	for i, o := range outs {
		if keep(plan[i]) && o.sent {
			lat = append(lat, latencyMs(o))
		}
	}
	return lat
}

// latencyMs is a sent request's latency in ms, +Inf when it failed.
func latencyMs(o outcome) float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return ms(o.latency())
}

// hist is a histogram of non-negative millisecond values, in buckets 1%
// wide from 1 µs to about 20 minutes, and +Inf in a bucket of its own. A
// quantile reads as its bucket's upper edge, capped at the largest
// value, so it is at most 1% high.
type hist struct {
	counts [histBuckets + 1]int
	n      int
	max    float64
}

const (
	histMin     = 1e-3
	histGrowth  = 1.01
	histBuckets = 2100
)

func (h *hist) add(v float64) {
	i := histBuckets
	if !math.IsInf(v, 1) {
		i = 0
		if v > histMin {
			i = min(int(math.Log(v/histMin)/math.Log(histGrowth)), histBuckets-1)
		}
	}
	h.counts[i]++
	h.n++
	h.max = max(h.max, v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantile returns the nearest-rank q-quantile (0 for no values).
func (h *hist) quantile(q float64) float64 {
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	for i, c := range h.counts {
		if rank -= c; rank <= 0 {
			if i == histBuckets {
				return math.Inf(1)
			}
			return min(histMin*math.Pow(histGrowth, float64(i+1)), h.max)
		}
	}
	return 0
}

func all(plannedReq) bool        { return true }
func reads(p plannedReq) bool    { return p.read }
func writes(p plannedReq) bool   { return !p.read }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logPhase prints one phase's accounting: requests sent, succeeded and
// failed, latency percentiles with their sample count, and how late the
// generator ran.
func (b *bench) logPhase(name string, rate float64, ps *phaseStats) {
	b.logf("phase %-18s rate=%.0f/s sent=%d ok=%d failed=%d unsent=%d p50_ms=%.4g p99_ms=%.4g (n=%d) lateness_p50_ms=%.4g lateness_p99_ms=%.4g lateness_max_ms=%.4g slip_p50_ms=%.4g slip_p99_ms=%.4g",
		name, rate, ps.sent, ps.ok, ps.failed, ps.unsent, ps.lat.quantile(0.5), ps.lat.quantile(0.99), ps.lat.n,
		ps.late.quantile(0.5), ps.late.quantile(0.99), ps.late.max, ps.slip.quantile(0.5), ps.slip.quantile(0.99))
}
