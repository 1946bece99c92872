package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/bpred"
	"repro/internal/engine/pool"
	"repro/internal/experiments"
	"repro/internal/factory"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The serve-spill workload's scale: each session streams one
// benchmark's test trace in chunks of chunkRecords into a VLP 16 KB
// conditional session whose profile comes from a profile input of
// serveProfileBase records. Each client streams serveRounds sessions,
// one after the other, so a pass sends enough chunks to time.
const (
	serveBase        = 1_000_000
	serveProfileBase = 100_000
	serveRounds      = 4
	chunkRecords     = 4096
)

// serveBenches are the benchmarks streamed, one session and one client
// each: the two largest programs of the suite.
var serveBenches = []string{"gcc", "go"}

// input is what one client streams: a benchmark's test trace and its
// session spec.
type input struct {
	bench string
	spec  string
	recs  []trace.Record
	// want is a batch sim run of the same records and spec: a session's
	// final miss rate must equal its rate bit for bit.
	want sim.Result
}

// stream is one session streaming an input, and what happened to it.
type stream struct {
	*input
	id    string
	round int

	rec      *chunkRecorder
	res      loadgen.Result
	outcomes []outcome
	problems []string
	acked    int64 // records the server acknowledged, chunk by chunk
}

// servePass runs the serve-spill workload: the vlpserve handler on a
// loopback listener in this process, with write-through spill into a
// fresh directory, and one closed-loop loadgen client per session
// streaming its chunks in order. The loop is closed because a session's
// chunks must arrive in order: each client waits for a reply before it
// sends on.
func servePass(ctx context.Context, e *env) (*passResult, error) {
	r := &passResult{outputs: map[string]string{}, layers: map[string]float64{}}
	start := time.Now()
	sp := e.tr.begin("setup", 0)
	inputs, records, err := serveInputs(ctx, e, sp)
	var srv *server
	if err == nil {
		srv, err = startServer(ctx, filepath.Join(e.dir, "spill"), len(inputs))
	}
	e.tr.end(sp)
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return nil, err
	}
	// streams[i] is input i%len(inputs) in round i/len(inputs).
	var streams []*stream
	for i := 0; i < serveRounds*len(inputs); i++ {
		in, round := inputs[i%len(inputs)], i/len(inputs)
		streams = append(streams, &stream{input: in, round: round,
			id: fmt.Sprintf("%s-%s-r%d", in.bench, filepath.Base(e.dir), round)})
	}
	r.setup = time.Since(start)

	c := startClock()
	root := e.tr.begin("timed", 0)
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for client := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := client; i < len(streams) && errs[client] == nil; i += len(inputs) {
				errs[client] = streams[i].run(ctx, srv.url, srv.transport, e.tr, root)
			}
		}()
	}
	wg.Wait()
	e.tr.end(root)
	r.timed = c.stop()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var retries int64
	var lat time.Duration
	for _, st := range streams {
		r.outcomes = append(r.outcomes, st.outcomes...)
		for _, p := range st.problems {
			r.problems = append(r.problems, st.id+": "+p)
		}
		r.latencies = append(r.latencies, st.rec.latencies...)
		for _, l := range st.rec.latencies {
			lat += l
		}
		retries += st.res.Retries
		r.work.records += st.acked
		r.outputs[fmt.Sprintf("%s-r%d", st.bench, st.round)] = fmt.Sprintf("%d/%d", st.res.Mispredicts, st.res.Branches)
	}
	m, err := srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	// A spill directory left over from an earlier run would make the
	// idempotent session create resume old state; nothing may be
	// restored or fail to restore.
	if m.SnapshotsRestored != 0 || m.RehydrateFailures != 0 {
		r.problems = append(r.problems, fmt.Sprintf("spill: %d snapshots restored, %d rehydrate failures, want 0 and 0",
			m.SnapshotsRestored, m.RehydrateFailures))
	}
	r.counts = fmt.Sprintf("records_in=%d predicts=%d", m.RecordsIn, m.Predicts)
	if e.tr == nil {
		return r, nil
	}
	r.layers["workload.gen_s"] = e.tr.total("workload.gen")
	r.layers["workload.records"] = float64(records)
	r.layers["profile.twostep_s"] = e.tr.total("profile.twostep")
	r.layers["profile.twostep_runs"] = float64(len(inputs))
	r.layers["serve.rejected"] = float64(m.Rejected)
	r.layers["serve.retries"] = float64(retries)
	r.layers["serve.snapshots_saved"] = float64(m.SnapshotsSaved)
	if m.RecordsIn > 0 {
		r.layers["serve.bytes_per_record"] = float64(m.BytesIn) / float64(m.RecordsIn)
	}
	if err := layerTimes(ctx, e, inputs, r.layers); err != nil {
		return nil, err
	}
	n := float64(len(r.latencies))
	r.layers["serve.http_ms"] = float64(lat)/n/float64(time.Millisecond) -
		r.layers["serve.decode_ms"] - r.layers["serve.replay_ms"] - r.layers["serve.spill_ms"]
	return r, nil
}

// serveInputs generates each client's test trace from the seed, builds
// and saves its profile, and runs the batch reference. It returns the
// inputs and the records generated.
func serveInputs(ctx context.Context, e *env, parent int) ([]*input, int64, error) {
	s := experiments.NewSuite(experiments.Config{BaseRecords: serveBase, ProfileRecords: serveProfileBase})
	var inputs []*input
	var records int64
	for _, name := range serveBenches {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		st := &input{bench: name}
		sp := e.tr.begin("workload.gen", parent)
		st.recs = trace.Collect(testSource(b, serveBase, e.seed)).Records
		e.tr.end(sp)
		sp = e.tr.begin("workload.gen", parent)
		prof, err := s.ProfileSource(name)
		e.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		records += int64(len(st.recs) + prof.(*trace.Buffer).Len())

		sp = e.tr.begin("profile.twostep", parent)
		p, err := s.Profile(name, false, condK(16<<10))
		e.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		path := filepath.Join(e.dir, name+".prof")
		if err := p.Save(path); err != nil {
			return nil, 0, err
		}
		st.spec = "vlp:budget=16KB,profile=" + path

		sp = e.tr.begin("sim.batch", parent)
		pred, _, err := condPredictor(st.spec)
		if err == nil {
			st.want = sim.RunCond(ctx, pred, trace.NewBuffer(st.recs), sim.Options{})
			err = st.want.Err
		}
		e.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		inputs = append(inputs, st)
	}
	return inputs, records, nil
}

// condPredictor builds a fresh predictor from a session spec and
// returns it with the spec's canonical form.
func condPredictor(spec string) (bpred.CondPredictor, string, error) {
	sp, err := factory.ParseSpec(spec)
	if err != nil {
		return nil, "", err
	}
	p, err := sp.Cond()
	return p, sp.String(), err
}

// run streams the session through loadgen.Run — the client vlpload
// uses — with one closed-loop sender and chunks of chunkRecords; Run
// creates the session, sends the chunks in order and reads the final
// totals back. It returns an error only when the session could not be
// streamed at all; failed chunks become failed outcomes.
func (st *stream) run(ctx context.Context, url string, base http.RoundTripper, tr *tracer, parent int) error {
	st.rec = &chunkRecorder{base: base, tr: tr, parent: parent}
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL: url, SessionID: st.id, Class: "cond", Spec: st.spec,
		Clients: 1, ChunkRecords: chunkRecords, Transport: st.rec,
	}, trace.NewBuffer(st.recs))
	if err != nil && res.Chunks == 0 {
		return fmt.Errorf("streaming session %s: %w", st.id, err)
	}
	st.res = res
	st.judge(err)
	return nil
}

// judge gives each chunk an outcome. A chunk is ok when the server
// accepted it and its reply counts its records on top of those
// acknowledged before it. A chunk loadgen gave up on — refused, or
// every retry refused or lost — is a failure. The session's final
// totals must then match the batch run: records acknowledged equal
// records sent, and the miss rate is bit-identical. A mismatch fails
// every accepted chunk of the session.
func (st *stream) judge(runErr error) {
	for i, reply := range st.rec.replies {
		n := int64(reply.Records)
		if n < 1 || n > chunkRecords || reply.TotalRecords != st.acked+n {
			st.outcomes = append(st.outcomes, opWrong)
			st.problems = append(st.problems, fmt.Sprintf("reply %d counts %d records, %d in total, after %d acknowledged",
				i, reply.Records, reply.TotalRecords, st.acked))
			continue
		}
		st.outcomes = append(st.outcomes, opOK)
		st.acked += n
	}
	for i := int64(0); i < st.res.Failures; i++ {
		st.outcomes = append(st.outcomes, opFailed)
	}
	if st.res.Failures > 0 {
		st.problems = append(st.problems, fmt.Sprintf("%d chunks refused or retried out", st.res.Failures))
	}
	// Chunks neither accepted nor failed were never sent (the run was
	// canceled).
	for len(st.outcomes) < st.res.Chunks {
		st.outcomes = append(st.outcomes, opError)
	}
	if runErr != nil {
		st.problems = append(st.problems, runErr.Error())
	}

	var problem string
	switch {
	case st.acked != int64(len(st.recs)) || st.res.Records != st.acked:
		problem = fmt.Sprintf("session acknowledged %d records and holds %d, sent %d", st.acked, st.res.Records, len(st.recs))
	case st.res.Branches != st.want.Branches || st.res.Mispredicts != st.want.Mispredicts ||
		math.Float64bits(st.res.MissRate) != math.Float64bits(st.want.Rate()):
		problem = fmt.Sprintf("served %d/%d (miss rate %v), batch %d/%d (%v)", st.res.Mispredicts, st.res.Branches,
			st.res.MissRate, st.want.Mispredicts, st.want.Branches, st.want.Rate())
	default:
		return
	}
	st.problems = append(st.problems, problem)
	for i, o := range st.outcomes {
		if o == opOK {
			st.outcomes[i] = opWrong
		}
	}
}

// chunkRecorder is the transport under loadgen's HTTP client for one
// session. It hands every request to the shared transport; for a chunk
// request it also reads the whole reply, times the request from send to
// the reply's last byte, and keeps each accepted reply for the output
// check. loadgen with one client sends a session's chunks one at a
// time, so the recorder sees them in order and needs no lock.
type chunkRecorder struct {
	base   http.RoundTripper
	tr     *tracer
	parent int

	latencies []time.Duration // of accepted chunks, like loadgen's own
	replies   []serve.PredictResponse
}

func (c *chunkRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/chunks") {
		return c.base.RoundTrip(req)
	}
	sp := c.tr.begin("serve.chunk", c.parent)
	defer c.tr.end(sp)
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	lat := time.Since(start)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if resp.StatusCode == http.StatusOK {
		// A reply that does not decode stays zero, which fails its
		// chunk's check.
		var reply serve.PredictResponse
		_ = json.Unmarshal(body, &reply)
		c.latencies = append(c.latencies, lat)
		c.replies = append(c.replies, reply)
	}
	return resp, nil
}

// server is the vlpserve handler on a loopback listener, and the one
// HTTP transport every client shares.
type server struct {
	url       string
	transport *http.Transport
	cancel    context.CancelFunc
	done      chan error
}

// startServer serves on 127.0.0.1 with write-through spill into dir,
// which must not exist yet. The clients open at most conns connections.
func startServer(ctx context.Context, dir string, conns int) (*server, error) {
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("spill directory %s already exists", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	limits := serve.DefaultLimits()
	limits.Workers = pool.Cap()
	srv, err := serve.New(limits, nil)
	if err != nil {
		return nil, err
	}
	srv.SetSpillDir(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &server{
		url:       "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		cancel:    cancel,
		done:      make(chan error, 1),
	}
	go func() { s.done <- srv.Serve(sctx, ln) }()
	return s, nil
}

// stop shuts the server down and waits until it has drained.
func (s *server) stop() error {
	s.transport.CloseIdleConnections()
	s.cancel()
	return <-s.done
}

// metrics reads the server's own counters from /v1/metrics.
func (s *server) metrics(ctx context.Context) (serve.MetricsData, error) {
	var rep struct {
		Data serve.MetricsData `json:"data"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/metrics", nil)
	if err != nil {
		return serve.MetricsData{}, err
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second, Transport: s.transport}).Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&rep)
		}
	}
	if err != nil {
		return serve.MetricsData{}, fmt.Errorf("reading /v1/metrics: %w", err)
	}
	return rep.Data, nil
}

// layerTimes replays the chunks a session streams through the layers a
// served chunk passes — trace.Decode, the session spec's predictor
// (factory + sim), and a snap capture saved to a file — timing each per
// chunk, after the timed region. It reports mean milliseconds per chunk
// and mean snapshot bytes, and checks the chunked replay against the
// batch run.
func layerTimes(ctx context.Context, e *env, inputs []*input, layers map[string]float64) error {
	root := e.tr.begin("serve.layers", 0)
	defer e.tr.end(root)
	var decode, replay, spill time.Duration
	var spillBytes int64
	var n int
	for _, st := range inputs {
		p, spec, err := condPredictor(st.spec)
		if err != nil {
			return err
		}
		path := filepath.Join(e.dir, "local-"+st.bench+".vlps")
		var total sim.Result
		for off := 0; off < len(st.recs); off += chunkRecords {
			data, err := trace.Encode(trace.NewBuffer(st.recs[off:min(off+chunkRecords, len(st.recs))]))
			if err != nil {
				return err
			}
			sp := e.tr.begin("serve.decode", root)
			start := time.Now()
			buf, err := trace.Decode(data)
			decode += time.Since(start)
			e.tr.end(sp)
			if err != nil {
				return err
			}

			sp = e.tr.begin("serve.replay", root)
			start = time.Now()
			res := sim.RunCond(ctx, p, buf, sim.Options{})
			replay += time.Since(start)
			e.tr.end(sp)
			if res.Err != nil {
				return res.Err
			}
			total.Branches += res.Branches
			total.Mispredicts += res.Mispredicts

			sp = e.tr.begin("serve.spill", root)
			start = time.Now()
			sn, err := snap.Capture(factory.Cond.String(), spec, p)
			if err == nil {
				err = sn.SaveFile(path)
			}
			spill += time.Since(start)
			e.tr.end(sp)
			if err != nil {
				return err
			}
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			spillBytes += fi.Size()
			n++
		}
		if total.Branches != st.want.Branches || total.Mispredicts != st.want.Mispredicts {
			return fmt.Errorf("%s: chunked replay scored %d/%d, batch %d/%d", st.bench,
				total.Mispredicts, total.Branches, st.want.Mispredicts, st.want.Branches)
		}
	}
	perChunk := func(d time.Duration) float64 { return float64(d) / float64(n) / float64(time.Millisecond) }
	layers["serve.decode_ms"] = perChunk(decode)
	layers["serve.replay_ms"] = perChunk(replay)
	layers["serve.spill_ms"] = perChunk(spill)
	layers["snap.spill_bytes"] = float64(spillBytes) / float64(n)
	return nil
}
