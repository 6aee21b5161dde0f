package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"vtmig/internal/aotm"
	"vtmig/internal/mathx"
	"vtmig/internal/nn"
	"vtmig/internal/serve"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// The traced serving run splits a quote into its layers from outside:
// the handler wrapper times ServeHTTP under load, and after the load the
// traced plant's writes are replayed in round order through in-process
// public APIs whose timings and answers are compared with the HTTP run.
// Replay spans carry the HTTP request's id (0 for the untraced warm-up
// writes), so they line up with that request's client and handler spans.

// httpLayers splits the measured side's client latency into handler time
// and transport.
func (r *serveRun) httpLayers(ws *windows) {
	name := "http.handler"
	if r.mixed {
		name = "http.replica_handler"
	}
	handler := map[int64]float64{}
	for _, s := range r.b.tr.named(name) {
		handler[s.Req] = float64(s.End-s.Start) / 1e3
	}
	var h, transport []float64
	side := measured(r.mixed)
	for i, o := range ws.outs {
		if hd, ok := handler[ws.ids[i]]; ok && side(ws.plan[i]) && o.ok {
			h = append(h, hd)
			transport = append(transport, float64(o.done.Sub(o.at))/1e3-hd)
		}
	}
	r.rep.addLayer("http.handler_us", "us", median(h), len(h))
	r.rep.addLayer("http.transport_us", "us", median(transport), len(transport))
}

// replicaLayers times Replica.Quote in process over the traced reads, and
// reports refreshes and read staleness.
func (r *serveRun) replicaLayers(p *plant, ws *windows) error {
	var quote []float64
	for i, pr := range ws.plan {
		if !pr.read {
			continue
		}
		t0 := time.Now()
		resp, err := p.rep.Quote(context.Background(), pr.req)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replica quote: %w", err)
		}
		r.rep.attempted++
		if resp.Price < r.game.Cost || resp.Price > r.game.PMax {
			return fmt.Errorf("replica price %v outside [%g, %g]", resp.Price, r.game.Cost, r.game.PMax)
		}
		r.b.tr.leaf("serve.replica_quote", 0, ws.ids[i], t0, t1, 0)
		quote = append(quote, float64(t1.Sub(t0))/1e3)
	}
	refresh := r.b.tr.durations("serve.replica_refresh", time.Millisecond)
	r.rep.addLayer("serve.replica_quote_us", "us", median(quote), len(quote))
	r.rep.addLayer("serve.replica_refresh_ms", "ms", median(refresh), len(refresh))
	r.rep.addLayer("serve.replica_refreshes", "count", float64(len(refresh)), 0)
	stale, n := ws.stale.median()
	r.rep.addLayer("serve.read_staleness_rounds", "rounds", stale, n)
	return nil
}

// primaryLayers replays the traced plant's acknowledged writes, in round
// order, through a fresh in-process Server and through a standalone
// sim.OnlinePricer with the serving defaults. Both must answer every
// round with the same float bits the HTTP run got; their timings split
// a quote into prework, policy core, learner update, snapshot, journal
// and rotation.
func (r *serveRun) primaryLayers() error {
	tr := r.b.tr
	ws := slices.SortedFunc(slices.Values(r.writes), func(a, b ackedWrite) int { return a.resp.Round - b.resp.Round })
	srv, err := serve.Open(serve.Config{Dir: r.newDir()})
	if err != nil {
		return err
	}
	serial := make([]float64, len(ws)) // µs, per round
	updated := make([]bool, len(ws))
	var plain, upd []float64
	last := 0
	for k, w := range ws {
		t0 := time.Now()
		resp, err := srv.Quote(context.Background(), w.req)
		t1 := time.Now()
		if err != nil {
			srv.Close()
			return fmt.Errorf("serial replay: %w", err)
		}
		r.rep.attempted++
		if resp != w.resp {
			srv.Close()
			return fmt.Errorf("serial replay of round %d answered %+v, HTTP run got %+v", w.resp.Round, resp, w.resp)
		}
		serial[k] = float64(t1.Sub(t0)) / 1e3
		updated[k] = resp.Updates != last
		last = resp.Updates
		tr.leaf("serve.quote", 0, w.id, t0, t1, 0)
		if updated[k] {
			upd = append(upd, serial[k]/1e3)
		} else {
			plain = append(plain, serial[k])
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}

	var snap *nn.Checkpoint
	pricer, err := sim.NewOnlinePricer(sim.OnlinePricerConfig{
		Game:          r.game,
		SnapshotEvery: 1,
		OnSnapshot:    func(ck *nn.Checkpoint) { snap = ck },
	})
	if err != nil {
		return err
	}
	var scratch stackelberg.EvalScratch
	var prep, core, snapshot, update, encode, decode, size, journal, rotate, queue []float64
	for k, w := range ws {
		g, err := quoteGame(r.game, w.req)
		if err != nil {
			return err
		}
		t0 := time.Now()
		pp := pricer.PrepQuote(g, &scratch)
		t1 := time.Now()
		price := mathx.Clamp(pricer.PriceForPrepped(g, pp), g.Cost, g.PMax)
		t2 := time.Now()
		if price != w.resp.Price {
			return fmt.Errorf("standalone pricer priced round %d at %v, HTTP run got %v", w.resp.Round, price, w.resp.Price)
		}
		tr.leaf("sim.prep", 0, w.id, t0, t1, 0)
		prepUs, coreUs := float64(t1.Sub(t0))/1e3, float64(t2.Sub(t1))/1e3
		prep = append(prep, prepUs)
		if !updated[k] {
			tr.leaf("sim.core", 0, w.id, t1, t2, 0)
			core = append(core, coreUs)
			journal = append(journal, serial[k]-prepUs-coreUs)
		} else {
			if snap == nil {
				return fmt.Errorf("round %d updated the learner without a snapshot", w.resp.Round)
			}
			s0 := time.Now()
			if _, err := pricer.Snapshot(); err != nil {
				return err
			}
			s1 := time.Now()
			tr.leaf("sim.update_round", 0, w.id, t1, t2, 0)
			tr.leaf("sim.snapshot", 0, w.id, s0, s1, 0)
			snapUs := float64(s1.Sub(s0)) / 1e3
			snapshot = append(snapshot, snapUs)
			update = append(update, (coreUs-snapUs)/1e3)
			rotate = append(rotate, (serial[k]-prepUs-coreUs)/1e3)
			var buf bytes.Buffer
			e0 := time.Now()
			if err := snap.SaveBinary(&buf); err != nil {
				return err
			}
			e1 := time.Now()
			if _, err := nn.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
				return err
			}
			e2 := time.Now()
			tr.leaf("nn.encode", 0, w.id, e0, e1, float64(buf.Len()))
			tr.leaf("nn.decode", 0, w.id, e1, e2, 0)
			encode = append(encode, float64(e1.Sub(e0))/1e3)
			decode = append(decode, float64(e2.Sub(e1))/1e3)
			size = append(size, float64(buf.Len()))
			snap = nil
		}
	}
	// Queue wait: the primary's handler time under load minus the same
	// round's serial Quote time.
	handler := map[int64]float64{}
	for _, s := range tr.named("http.handler") {
		handler[s.Req] = float64(s.End-s.Start) / 1e3
	}
	for k, w := range ws {
		if hd, ok := handler[w.id]; ok && w.id != 0 {
			queue = append(queue, hd-serial[k])
		}
	}
	add := func(name, unit string, xs []float64) { r.rep.addLayer(name, unit, median(xs), len(xs)) }
	add("serve.quote_plain_us", "us", plain)
	add("serve.quote_update_ms", "ms", upd)
	add("serve.queue_wait_us", "us", queue)
	add("serve.journal_us", "us", journal)
	add("serve.rotate_ms", "ms", rotate)
	add("sim.prep_us", "us", prep)
	add("sim.core_us", "us", core)
	add("sim.snapshot_us", "us", snapshot)
	add("rl.update_ms", "ms", update)
	add("nn.encode_us", "us", encode)
	add("nn.decode_us", "us", decode)
	add("nn.checkpoint_bytes", "bytes", size)
	return nil
}

// quoteGame builds a round's game from a request over the reference game
// the way the serving engine does, so a standalone pricer prices the
// same rounds.
func quoteGame(ref *stackelberg.Game, req serve.QuoteRequest) (*stackelberg.Game, error) {
	ch := ref.Channel
	if req.DistanceM > 0 {
		ch.DistanceM = req.DistanceM
	}
	bmax := ref.BMax
	if req.AvailableMHz > 0 {
		bmax = req.AvailableMHz
	}
	vmus := make([]stackelberg.VMU, len(req.VMUs))
	for i, v := range req.VMUs {
		vmus[i] = stackelberg.VMU{ID: v.ID, Alpha: v.Alpha, DataSize: aotm.FromMB(v.DataMB)}
	}
	return stackelberg.NewGame(vmus, ch, ref.Cost, ref.PMax, bmax)
}
