package main

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"vtmig/internal/serve"
	"vtmig/internal/stackelberg"
)

const (
	// latencyLimit is the p99 limit of the max_qps ladder. It sits above
	// the tens of milliseconds a checkpoint rotation's fsyncs take on a
	// busy shared disk, so the ladder finds where the backlog starts to
	// grow rather than where the disk last stalled.
	latencyLimit = 100 * time.Millisecond
	// abortFactor × latencyLimit of lateness stops a ladder step whose
	// backlog has clearly run away.
	abortFactor = 2
	// ladderUp is the ladder's step factor until a step fails; its first
	// step is one such step above the fixed rate.
	ladderUp = 1.5
	// windowShare of the run's budget goes to the latency windows; the
	// ladder runs after them, until 95% of the budget.
	windowShare = 0.6
	// readShare is serve-mixed's share of reads.
	readShare = 0.8
	// updateEvery is serve.Open's default learner cadence; with one
	// checkpoint rotation per update, recovery replays rounds mod 20.
	updateEvery = 20
	// mixedWriteConns is serve-mixed's write connection count; with the
	// read connection it makes two, the host's core count.
	mixedWriteConns = 1
)

// front is one handler served over loopback HTTP.
type front struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func startFront(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	f := &front{hs: serve.NewHTTPServer("", h), url: "http://" + ln.Addr().String() + "/v1/quote", done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return f, nil
}

func (f *front) close() {
	f.hs.Close()
	<-f.done
}

// tracedHandler times every ServeHTTP call that carries a request index,
// as a child of the client's request span.
func tracedHandler(h http.Handler, tr *tracer, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.leaf(name, parent, req, t0, time.Now(), 0)
	})
}

// plant is the serving system under test: a journaled primary behind
// HTTP and, for serve-mixed, a read replica behind its own HTTP server
// with a refresher polling the primary's directory at a fixed cadence.
type plant struct {
	dir     string
	srv     *serve.Server
	primary *front
	rep     *serve.Replica
	replica *front

	stop        chan struct{}
	refreshDone chan struct{}
	refreshMu   sync.Mutex
	refreshErr  error
}

// openPlant boots a plant over a fresh state directory. With tr set the
// handlers are traced and every replica refresh that swapped state is
// recorded.
func openPlant(dir string, withReplica bool, refresh time.Duration, tr *tracer) (*plant, error) {
	srv, err := serve.Open(serve.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	p := &plant{dir: dir, srv: srv}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr, "http.handler")
	}
	if p.primary, err = startFront(h); err != nil {
		srv.Close()
		return nil, err
	}
	if !withReplica {
		return p, nil
	}
	if p.rep, err = serve.OpenReplica(serve.ReplicaConfig{Dir: dir}); err != nil {
		p.close()
		return nil, err
	}
	h = p.rep.Handler()
	if tr != nil {
		h = tracedHandler(h, tr, "http.replica_handler")
	}
	if p.replica, err = startFront(h); err != nil {
		p.close()
		return nil, err
	}
	p.stop, p.refreshDone = make(chan struct{}), make(chan struct{})
	go p.refresher(refresh, tr)
	return p, nil
}

// refresher calls Replica.Refresh at a fixed cadence.
func (p *plant) refresher(every time.Duration, tr *tracer) {
	defer close(p.refreshDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		before := p.rep.Stats().Refreshes
		t0 := time.Now()
		err := p.rep.Refresh()
		t1 := time.Now()
		if err != nil {
			p.refreshMu.Lock()
			p.refreshErr = errors.Join(p.refreshErr, err)
			p.refreshMu.Unlock()
			continue
		}
		if p.rep.Stats().Refreshes > before {
			tr.leaf("serve.replica_refresh", 0, 0, t0, t1, 0)
		}
	}
}

// close stops everything the plant started and closes the primary, so
// the state directory is left exactly as the load made it.
func (p *plant) close() error {
	if p.stop != nil {
		close(p.stop)
		<-p.refreshDone
	}
	if p.replica != nil {
		p.replica.close()
	}
	if p.rep != nil {
		p.rep.Close()
	}
	if p.primary != nil {
		p.primary.close()
	}
	err := p.srv.Close()
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	return errors.Join(err, p.refreshErr)
}

func (p *plant) readURL() string {
	if p.replica == nil {
		return ""
	}
	return p.replica.url
}

// serveRun is one serving workload run in progress.
type serveRun struct {
	b     *bench
	mixed bool
	rng   *rand.Rand
	dirs  string
	dirN  int
	game  *stackelberg.Game
	rate  float64 // fixed offered rate of the latency windows
	// sent numbers requests across loads, so trace spans keep one id per
	// request for the whole run.
	sent int
	// boots holds every timed set-up, in seconds.
	boots []float64
	// rounds holds the Round of every acknowledged write to the current
	// plant, for the 1..N check.
	rounds []int
	// keep makes load also collect the acknowledged writes themselves,
	// for the traced run's replay.
	keep   bool
	writes []ackedWrite
	rep    report
}

type ackedWrite struct {
	req  serve.QuoteRequest
	resp serve.QuoteResponse
	id   int64 // request id in trace spans; 0 when untraced
}

func newServeRun(b *bench, mixed bool) (*serveRun, error) {
	dirs := filepath.Join(b.out, fmt.Sprintf("state-%s-%d", b.workload, os.Getpid()))
	if err := os.RemoveAll(dirs); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dirs, 0o755); err != nil {
		return nil, err
	}
	b.host.StateFS = fsType(dirs)
	r := &serveRun{b: b, mixed: mixed, rng: rand.New(rand.NewSource(b.seed)), dirs: dirs, game: stackelberg.DefaultGame(), rate: b.sz.writeRate}
	if mixed {
		r.rate = b.sz.mixedRate
	}
	return r, nil
}

func (r *serveRun) newDir() string {
	r.dirN++
	return filepath.Join(r.dirs, strconv.Itoa(r.dirN))
}

// boot times one set-up of an untraced plant over a fresh directory;
// the median over a run's boots is setup_s. With keep false the plant is
// closed and its directory removed at once, and it is kept out of the
// run's heap peak. Besides the plant that takes the load, a run boots one
// such plant after every latency window, so the set-ups spread over the
// same stretch of the run as the load rather than meeting one stretch of
// the disk's fsync weather together.
func (r *serveRun) boot(keep bool) (*plant, error) {
	dir := r.newDir()
	if !keep {
		return nil, r.b.heap.exclude(func() error {
			p, err := r.timedOpen(dir)
			if err != nil {
				return err
			}
			if err := p.close(); err != nil {
				return err
			}
			return os.RemoveAll(dir)
		})
	}
	return r.timedOpen(dir)
}

// timedOpen opens an untraced plant over dir and records its set-up time.
func (r *serveRun) timedOpen(dir string) (*plant, error) {
	t0 := time.Now()
	p, err := openPlant(dir, r.mixed, r.b.sz.refresh, nil)
	if err != nil {
		return nil, err
	}
	r.boots = append(r.boots, time.Since(t0).Seconds())
	return p, nil
}

// addSetup adds setup_s.
func (r *serveRun) addSetup() {
	r.rep.addE2E("setup_s", "s", median(r.boots), len(r.boots))
}

// load sends n requests open loop at rate and checks every answer.
func (r *serveRun) load(p *plant, rate float64, n int, abortLate time.Duration, tr *tracer) ([]plannedReq, []outcome, bool, error) {
	share := 0.0
	if r.mixed {
		share = readShare
	}
	plan := planLoad(r.rng, n, rate, share)
	opts := loadOpts{abortLate: abortLate, tr: tr, base: r.sent}
	r.sent += n
	if r.mixed {
		opts.ack = func() int { return p.srv.Stats().Rounds }
	}
	writeSenders := r.b.host.GoMaxProcs
	if r.mixed {
		writeSenders = mixedWriteConns
	}
	outs, aborted, err := openLoop(plan, lanesFor(plan, p.primary.url, p.readURL(), writeSenders), opts)
	if err != nil {
		return nil, nil, false, err
	}
	for i, o := range outs {
		if !o.sent {
			continue
		}
		r.rep.attempted++
		if !o.ok {
			r.rep.failed++
			return nil, nil, false, fmt.Errorf("quote %d failed: %s", i, o.err)
		}
		if err := r.checkAnswer(plan[i], o); err != nil {
			return nil, nil, false, err
		}
		if plan[i].read {
			continue
		}
		r.rounds = append(r.rounds, o.resp.Round)
		if r.keep {
			w := ackedWrite{req: plan[i].req, resp: o.resp}
			if o.span != 0 {
				w.id = int64(opts.base + i)
			}
			r.writes = append(r.writes, w)
		}
	}
	return plan, outs, aborted, nil
}

// checkAnswer checks one answer: the price lies in [Cost, PMax], and a
// replica answers only from a rotated checkpoint whose rounds the primary
// has acknowledged, give or take the write in flight. The primary
// rotates a checkpoint inside a batch's serial core, before the batch's
// flush and acknowledgement, so a replica may already serve the round
// whose answer is still on its way to the one write connection.
func (r *serveRun) checkAnswer(p plannedReq, o outcome) error {
	if pr := o.resp.Price; math.IsNaN(pr) || pr < r.game.Cost || pr > r.game.PMax {
		return fmt.Errorf("quote price %v outside [%g, %g]", pr, r.game.Cost, r.game.PMax)
	}
	if !p.read {
		return nil
	}
	if o.resp.Round%updateEvery != 0 {
		return fmt.Errorf("replica answered from round %d, which no checkpoint rotation ends on", o.resp.Round)
	}
	if o.resp.Round > o.ackAtDone+mixedWriteConns {
		return fmt.Errorf("replica answered from round %d, primary had acknowledged %d with %d write in flight",
			o.resp.Round, o.ackAtDone, mixedWriteConns)
	}
	return nil
}

// recover checks that the acknowledged writes hold exactly the rounds
// 1..N the primary counts, closes the plant, and reopens its state
// directory sz.setups times, checking each time that exactly those
// rounds come back. It returns the median recovery time in ms and the
// replayed journal length.
func (r *serveRun) recover(p *plant) (float64, int, error) {
	want := p.srv.Stats()
	if want.RotateErrors != 0 {
		p.close()
		return 0, 0, fmt.Errorf("%d checkpoint rotations failed: %s", want.RotateErrors, want.LastRotateError)
	}
	if err := p.close(); err != nil {
		return 0, 0, err
	}
	rounds := slices.Sorted(slices.Values(r.rounds))
	if len(rounds) != want.Rounds {
		return 0, 0, fmt.Errorf("primary counts %d rounds, %d writes were acknowledged", want.Rounds, len(rounds))
	}
	for k, round := range rounds {
		if round != k+1 {
			return 0, 0, fmt.Errorf("acknowledged rounds are not 1..%d: position %d holds round %d", want.Rounds, k+1, round)
		}
	}
	var times []float64
	replayed := 0
	for k := 0; k < r.b.sz.setups; k++ {
		t0 := time.Now()
		s, err := serve.Open(serve.Config{Dir: p.dir})
		if err != nil {
			return 0, 0, fmt.Errorf("recovering: %w", err)
		}
		times = append(times, ms(time.Since(t0)))
		st := s.Stats()
		r.rep.attempted++
		if err := s.Close(); err != nil {
			return 0, 0, err
		}
		if st.Rounds != want.Rounds || st.Updates != want.Updates || st.ReplayedRounds != want.Rounds%updateEvery {
			return 0, 0, fmt.Errorf("recovery restored rounds=%d updates=%d replayed=%d, want rounds=%d updates=%d replayed=%d",
				st.Rounds, st.Updates, st.ReplayedRounds, want.Rounds, want.Updates, want.Rounds%updateEvery)
		}
		replayed = st.ReplayedRounds
	}
	return median(times), replayed, nil
}

// windows accumulates the fixed-rate latency windows of one plant. Each
// window lasts sz.window. A run's p50 is calmP50 over the windows'
// exact p50s; a p99 pools every window's requests.
type windows struct {
	// reads and writes account for the two sides (serve-write has only
	// writes); stale counts serve-mixed's read staleness.
	reads, writes phaseStats
	stale         intCounts
	// per-window p50s in ms, of the measured side and, on serve-mixed,
	// of the writes
	p50, w50 []float64
	// stolen is each window's stolen share of CPU time
	// (stealClock.share)
	stolen []float64
	// A traced run keeps the requests themselves, with their trace ids,
	// to match them with spans.
	plan []plannedReq
	outs []outcome
	ids  []int64
}

// warmUp sends half a second of unmeasured load.
func (r *serveRun) warmUp(p *plant) error {
	_, _, _, err := r.load(p, r.rate, max(int(r.rate/2), 1), 0, nil)
	return err
}

// window runs one fixed-rate latency window.
func (r *serveRun) window(p *plant, ws *windows, tr *tracer) error {
	n := max(int(r.rate*r.b.sz.window.Seconds()), 1)
	base := r.sent
	clock := startSteal()
	plan, outs, _, err := r.load(p, r.rate, n, 0, tr)
	if err != nil {
		return err
	}
	ws.stolen = append(ws.stolen, clock.share())
	if tr != nil {
		for i := range plan {
			ws.ids = append(ws.ids, int64(base+i))
		}
		ws.plan = append(ws.plan, plan...)
		ws.outs = append(ws.outs, outs...)
	}
	ws.writes.add(account(plan, outs, writes))
	if r.mixed {
		ws.reads.add(account(plan, outs, reads))
		if ws.stale == nil {
			ws.stale = intCounts{}
		}
		staleness(plan, outs, ws.stale)
		ws.w50 = append(ws.w50, median(latencies(plan, outs, writes)))
	}
	ws.p50 = append(ws.p50, median(latencies(plan, outs, measured(r.mixed))))
	return nil
}

// calmP50 is the median of per-window p50s over the calm windows.
func (ws *windows) calmP50(p50s []float64) float64 { return calmMedian(p50s, ws.stolen) }

// stealNote describes the calm windows for the log.
func (ws *windows) stealNote() string {
	c := calm(ws.stolen)
	most := 0.0
	for _, i := range c {
		most = max(most, ws.stolen[i])
	}
	return fmt.Sprintf("median of the p50s of %d calm windows of %d, at most %.1f%% of CPU time stolen in each; all windows: median %.4g ms, %.1f%% stolen",
		len(c), len(ws.p50), 100*most, median(ws.p50), 100*mean(ws.stolen))
}

// measured selects the requests a workload's latency is reported for.
func measured(mixed bool) func(plannedReq) bool {
	if mixed {
		return reads
	}
	return all
}

// log prints the windows' accounting and their latencies by name.
func (r *serveRun) log(ws *windows, label string) {
	if r.mixed {
		r.b.logPhase(label+"/read", r.rate*readShare, &ws.reads)
		r.b.logPhase(label+"/write", r.rate*(1-readShare), &ws.writes)
		r.b.logf("read_p50_ms %.6g ms (%s), read_p99_ms %.6g ms (n=%d)",
			ws.calmP50(ws.p50), ws.stealNote(), ws.reads.lat.quantile(0.99), ws.reads.lat.n)
		r.b.logf("write_p50_ms %.6g ms (the same windows), write_p99_ms %.6g ms (n=%d)", ws.calmP50(ws.w50), ws.writes.lat.quantile(0.99), ws.writes.lat.n)
		stale, n := ws.stale.median()
		r.b.logf("read_staleness_rounds %.6g rounds (n=%d)", stale, n)
		return
	}
	r.b.logPhase(label, r.rate, &ws.writes)
	r.b.logf("write_p50_ms %.6g ms (%s), write_p99_ms %.6g ms (n=%d)",
		ws.calmP50(ws.p50), ws.stealNote(), ws.writes.lat.quantile(0.99), ws.writes.lat.n)
}

// addLatency adds the windows' p50_ms.
func (r *serveRun) addLatency(ws *windows) {
	n := ws.writes.lat.n
	if r.mixed {
		n = ws.reads.lat.n
	}
	r.rep.addE2E("p50_ms", "ms", ws.calmP50(ws.p50), n)
}

// staleness counts, per replica read, the primary's acknowledged rounds
// when the read was sent minus the round the replica answered from.
func staleness(plan []plannedReq, outs []outcome, c intCounts) {
	for i, o := range outs {
		if plan[i].read && o.ok {
			c[o.ackAtSend-o.resp.Round]++
		}
	}
}

// intCounts counts integer values exactly.
type intCounts map[int]int

// median returns the nearest-rank median and the number of values.
func (c intCounts) median() (float64, int) {
	n := 0
	for _, k := range c {
		n += k
	}
	rank := max((n+1)/2, 1)
	for _, v := range slices.Sorted(maps.Keys(c)) {
		if rank -= c[v]; rank <= 0 {
			return float64(v), n
		}
	}
	return 0, 0
}

// ladder searches for max_qps, the highest offered rate at which the
// p99 stays within latencyLimit, nothing fails and the backlog does not
// grow. Steps go up by ladderUp from the fixed rate until one fails, then bisect geometrically to 3%. It stops early when end comes
// and returns the highest rate that passed so far (0 when none did).
func (r *serveRun) ladder(p *plant, end time.Time) (float64, error) {
	lo, hi, found := ladderUp*r.rate, 0.0, false
	for time.Now().Add(2 * r.b.sz.ladderStep).Before(end) {
		rate := lo
		switch {
		case !found:
		case hi == 0:
			rate = lo * ladderUp
		case hi/lo <= 1.03:
			return lo, nil
		default:
			rate = math.Sqrt(lo * hi)
		}
		ok, err := r.step(p, rate)
		if err != nil {
			return 0, err
		}
		switch {
		case ok && !found:
			found = true
		case ok:
			lo = rate
		case !found:
			hi, lo = lo, lo*0.8
		default:
			hi = rate
		}
	}
	if !found {
		return 0, nil
	}
	return lo, nil
}

// step runs one ladder step at rate and reports whether it passed. A
// step stops early once a request would go out abortFactor ×
// latencyLimit late.
func (r *serveRun) step(p *plant, rate float64) (bool, error) {
	sides := []func(plannedReq) bool{all}
	if r.mixed {
		sides = []func(plannedReq) bool{reads, writes}
	}
	n := max(int(rate*r.b.sz.ladderStep.Seconds()), 1)
	plan, outs, aborted, err := r.load(p, rate, n, abortFactor*latencyLimit, nil)
	if err != nil {
		return false, err
	}
	ok := !aborted
	for _, side := range sides {
		ps := account(plan, outs, side)
		ok = ok && ps.failed == 0 && ps.unsent == 0 && ps.lat.quantile(0.99) <= ms(latencyLimit) && !backlogGrew(plan, outs, side)
	}
	verdict := "pass"
	if !ok {
		verdict = "fail"
	}
	r.b.logPhase("ladder/"+verdict, rate, account(plan, outs, all))
	return ok, nil
}

// backlogGrew reports whether any of the last tenth of a step's requests
// went out later than the latency limit: the queue was still growing.
func backlogGrew(plan []plannedReq, outs []outcome, keep func(plannedReq) bool) bool {
	var late []float64
	for i, o := range outs {
		if keep(plan[i]) && o.sent {
			late = append(late, ms(o.at.Sub(o.due)))
		}
	}
	for _, l := range late[len(late)-len(late)/10:] {
		if l > ms(latencyLimit) {
			return true
		}
	}
	return false
}

func runServeWrite(b *bench) (*report, error) { return runServe(b, false) }
func runServeMixed(b *bench) (*report, error) { return runServe(b, true) }

// minWindows is the fewest latency windows a run measures.
const minWindows = 3

func runServe(b *bench, mixed bool) (*report, error) {
	r, err := newServeRun(b, mixed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dirs)
	if b.trace {
		return r.traced()
	}
	p, err := r.boot(true)
	if err != nil {
		return nil, err
	}
	var ws windows
	err = r.warmUp(p)
	for end := b.deadline(windowShare); err == nil && (len(ws.p50) < minWindows || time.Now().Add(b.sz.window).Before(end)); {
		err = r.windowAndBoot(p, &ws)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	r.log(&ws, "fixed")
	r.addLatency(&ws)
	r.addSetup()
	// The ladder's request buffers scale with the rate it reaches, and
	// they are the generator's, so the heap peak is read before it.
	b.heap.stop()
	maxQPS, err := r.ladder(p, b.deadline(0.95))
	if err != nil {
		p.close()
		return nil, err
	}
	recoverMs, _, err := r.recover(p)
	if err != nil {
		return nil, err
	}
	b.logf("max_qps %.6g 1/s at p99 <= %v", maxQPS, latencyLimit)
	b.logf("recover_ms %.6g ms (n=%d)", recoverMs, b.sz.setups)
	return &r.rep, nil
}

// windowAndBoot runs one untraced latency window on p, then times one
// set-up of a throwaway plant.
func (r *serveRun) windowAndBoot(p *plant, ws *windows) error {
	if err := r.window(p, ws, nil); err != nil {
		return err
	}
	_, err := r.boot(false)
	return err
}

// traced is the --trace 1 run of a serving workload: untraced latency
// windows, the same request stream again with traced handlers over a
// fresh plant, then the in-process passes that split a quote into its
// layers.
func (r *serveRun) traced() (*report, error) {
	b := r.b
	count := max(minWindows, int(0.4*float64(b.budget)/float64(b.sz.window)))

	p, err := r.boot(true)
	if err != nil {
		return nil, err
	}
	var base windows
	err = r.warmUp(p)
	for k := 0; k < count && err == nil; k++ {
		err = r.windowAndBoot(p, &base)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	if err := p.close(); err != nil {
		return nil, err
	}
	r.log(&base, "untraced")
	r.addLatency(&base)
	r.addSetup()
	baseP50 := base.calmP50(base.p50)

	r.rng, r.rounds, r.keep = rand.New(rand.NewSource(b.seed)), nil, true
	if p, err = openPlant(r.newDir(), r.mixed, b.sz.refresh, b.tr); err != nil {
		return nil, err
	}
	var ws windows
	err = r.warmUp(p)
	for k := 0; k < count && err == nil; k++ {
		err = r.window(p, &ws, b.tr)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	r.log(&ws, "traced")
	tracedP50 := ws.calmP50(ws.p50)
	r.rep.addLayer("trace.overhead_pct", "%", 100*(tracedP50-baseP50)/baseP50, 0)
	b.logf("tracing overhead: p50 %.4g ms traced vs %.4g ms untraced", tracedP50, baseP50)
	r.rep.addLayer("trace.unexplained_pct", "%", b.tr.unexplained("loadgen.request"), 0)

	r.httpLayers(&ws)
	if r.mixed {
		if err := r.replicaLayers(p, &ws); err != nil {
			p.close()
			return nil, err
		}
	}
	recoverMs, replayed, err := r.recover(p)
	if err != nil {
		return nil, err
	}
	r.rep.addLayer("serve.recover_ms", "ms", recoverMs, b.sz.setups)
	r.rep.addLayer("serve.replayed_rounds", "count", float64(replayed), 0)
	if err := r.primaryLayers(); err != nil {
		return nil, err
	}
	return &r.rep, nil
}
