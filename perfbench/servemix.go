package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"time"

	"fxpar/internal/mapping"
	"fxpar/internal/serve"
)

// serve-mix drives an in-process fxserve (replay store in memory) on a
// loopback listener with a closed loop of serveClients clients, each
// sending its next request when the previous reply has arrived, as
// fxbench -serve does. One operation is one stream against a fresh server
// with a cold table memo, so every operation repeats the same cold work.
//
// The request space is every quick-size /optimize and /measure body over
// app × p × sets (× goalRatio for /optimize). A stream introduces every
// body once, in the space's order, and follows each with serveRepeats
// repeats of bodies already introduced, drawn by popularity (weight
// 1/rank, the ranking drawn per stream). The repeat count is the one the
// repository's serving benchmark measures (BENCH_serve.json: 4 distinct
// bodies, 28 duplicates, so 7 per body); the 1/rank law is an assumption,
// since no fxserve traffic has been recorded. So a stream mixes first
// occurrences (a full campaign plus skeleton capture), bodies whose spec
// was seen with another goal (the table memo answers) and exact repeats
// (the response cache), and every stream does the same cold work in the
// same order: which campaigns overlap, and so how much work the server's
// deduplication saves, does not depend on the draw. How often a client
// waits on a campaign the other client started does depend on it, so each
// operation draws a new stream from the run's seeded generator and the
// medians average over many draws.
//
// The bodies that hit the known defect (knownDefect) are sent once each
// per stream and never drawn as repeats: a 500 carries no result for the
// response cache to re-serve, and a fixed count of them per stream makes
// every run's failed count the same whatever the draw.
const (
	serveClients = 2
	serveRepeats = 7
	serveWorkers = 2
	// serveStreamSeconds is about how long one stream and the collection
	// before it take on a 2-core host. A run sends a fixed number of
	// streams, its --seconds over this, so that attempted and failed are
	// the same in every run of the same length.
	serveStreamSeconds = 1.25
)

var (
	serveApps       = []string{"ffthist", "radar", "stereo"}
	serveProcs      = []int{8, 16, 32, 64}
	serveSets       = []int{4, 8}
	serveGoalRatios = []float64{1.5, 2.5}
)

// serveRequest is one body of the request space. The client ID is added
// when a client sends it.
type serveRequest struct {
	path string
	body map[string]any
	key  string // path and canonical body: identifies the response
	// spec identifies the cost tables an /optimize body needs: app and p,
	// since the table key leaves out the stream length. "" for /measure,
	// which runs one simulation and no tables.
	spec string
}

// serveSpace lists the request space in a fixed order.
func serveSpace() []serveRequest {
	var out []serveRequest
	add := func(path, spec string, body map[string]any) {
		b, err := json.Marshal(body) // map keys marshal sorted
		if err != nil {
			panic(err)
		}
		out = append(out, serveRequest{path: path, body: body, key: path + " " + string(b), spec: spec})
	}
	for _, app := range serveApps {
		for _, p := range serveProcs {
			spec := fmt.Sprintf("%s/%d", app, p)
			for _, sets := range serveSets {
				for _, g := range serveGoalRatios {
					add("/optimize", spec, map[string]any{"app": app, "p": p, "sets": sets, "quick": true, "goalRatio": g})
				}
				add("/measure", "", map[string]any{"app": app, "p": p, "sets": sets, "quick": true})
			}
		}
	}
	return out
}

// knownDefect reports whether a body is one of the known defect's (quick
// stereo at p >= 32; see defectMarker).
func knownDefect(r serveRequest) bool {
	return r.body["app"] == "stereo" && r.body["p"].(int) >= 32
}

// serveStream draws one request stream.
func serveStream(rng *rand.Rand) []serveRequest {
	space := serveSpace()
	var repeatable []int
	for i, r := range space {
		if !knownDefect(r) {
			repeatable = append(repeatable, i)
		}
	}
	weight := make([]float64, len(space)) // 0 for bodies never repeated
	for rank, k := range rng.Perm(len(repeatable)) {
		weight[repeatable[k]] = 1 / float64(rank+1)
	}
	var stream []serveRequest
	var total float64 // weight of the bodies introduced so far
	for i, r := range space {
		stream = append(stream, r)
		total += weight[i]
		for k := 0; k < serveRepeats; k++ {
			x, pick := rng.Float64()*total, -1
			for j := 0; j <= i; j++ {
				if weight[j] == 0 {
					continue
				}
				if pick = j; x < weight[j] {
					break
				}
				x -= weight[j]
			}
			stream = append(stream, space[pick])
		}
	}
	return stream
}

// serveWarmup is what setup sends to a fresh server: one body per app at a
// size outside the stream's space.
var serveWarmup = []serveRequest{
	{path: "/optimize", body: map[string]any{"app": "ffthist", "p": 4, "quick": true, "goalRatio": 1.5}},
	{path: "/measure", body: map[string]any{"app": "radar", "p": 4, "quick": true}},
	{path: "/optimize", body: map[string]any{"app": "stereo", "p": 4, "quick": true, "goalRatio": 1.5}},
}

// Request classes, decided by the generator when a request is sent.
const (
	classCold = "cold" // first occurrence of a /measure body, or of an /optimize spec
	classMemo = "memo" // first occurrence of an /optimize body whose spec was sent before
	classHit  = "hit"  // repeat of a body whose first response had arrived
	classJoin = "join" // repeat of a body whose first request was in flight
)

// goldenResponse is the expected reply to one body.
type goldenResponse struct {
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// The known defect: quick stereo at p >= 32 puts its stage on 24 ranks, one
// image row each, fewer than the window of 2 the halo exchange needs. The
// simulated processors panic ("interior rank 0 holds 1 rows < window 2")
// and the server answers 500 — "campaign panicked" on /measure, a model
// error on /optimize — instead of refusing the request with a 400. Such
// replies count as failed operations. A 4xx refusal is accepted as the
// fixed behaviour; it counts as a success but runs no campaign, so it is
// left out of the latency percentiles.
const defectMarker = "halo exchange would span several processors"

type serveMix struct {
	rng    *rand.Rand // draws each operation's stream
	golden *golden
	want   map[string]goldenResponse
	got    map[string]goldenResponse // under --regen-golden

	// Latencies (ms) of successful requests by class, requests of each
	// class, and requests per second of each stream, over the untraced
	// operations.
	lat     map[string][]float64
	classN  map[string]int
	reqPerS []float64
}

func newServeMix(seed int64, _ string) workload {
	return &serveMix{rng: rand.New(rand.NewSource(seed)), lat: map[string][]float64{}, classN: map[string]int{}, got: map[string]goldenResponse{}}
}

// setup brings up a fresh server, answers the warm-up requests and shuts
// it down.
func (s *serveMix) setup() error {
	if s.golden == nil {
		g, err := loadGolden("serve-mix")
		if err != nil {
			return err
		}
		s.golden = g
		if !regenGolden {
			if err := json.Unmarshal(g.want, &s.want); err != nil {
				return fmt.Errorf("golden: %w", err)
			}
		}
	}
	mapping.ResetTableMemo()
	srv, err := startServer()
	if err != nil {
		return err
	}
	defer srv.stop()
	for _, r := range serveWarmup {
		status, body, err := srv.post(r, "warmup")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s %v: status %d: %s", r.path, r.body, status, body)
		}
	}
	return nil
}

// testServer is one in-process fxserve on a loopback listener.
type testServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer() (*testServer, error) {
	srv, err := serve.New(serve.Options{ReplayDir: "mem", Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ts := &testServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		served: make(chan error, 1),
	}
	go func() { ts.served <- ts.hs.Serve(ln) }()
	return ts, nil
}

// stop shuts the HTTP server down, drains the job pool and waits for the
// serving goroutine to return.
func (ts *testServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ts.hs.Shutdown(ctx) //nolint:errcheck // every request has been answered
	ts.srv.Close()
	ts.client.Transport.(*http.Transport).CloseIdleConnections()
	<-ts.served
}

func (ts *testServer) post(r serveRequest, client string) (int, []byte, error) {
	body := map[string]any{"client": client}
	for k, v := range r.body {
		body[k] = v
	}
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ts.client.Post(ts.url+r.path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// reply is one answered request of a stream.
type reply struct {
	req    serveRequest
	class  string
	status int
	body   []byte
	ms     float64
	err    error
}

func (s *serveMix) op(tr *tracer) opResult {
	stream := serveStream(s.rng)
	mapping.ResetTableMemo()
	srv, err := startServer()
	if err != nil {
		return opResult{attempted: 1, failed: 1, mismatch: err}
	}
	var (
		mu       sync.Mutex
		next     int
		sentBody = map[string]bool{}
		doneBody = map[string]bool{}
		sentSpec = map[string]bool{}
		replies  []reply
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		client := fmt.Sprintf("client-%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(stream) {
					mu.Unlock()
					return
				}
				r := stream[next]
				next++
				class := classHit
				switch {
				case !sentBody[r.key] && (r.spec == "" || !sentSpec[r.spec]):
					class = classCold
				case !sentBody[r.key]:
					class = classMemo
				case !doneBody[r.key]:
					class = classJoin
				}
				sentBody[r.key], sentSpec[r.spec] = true, true
				mu.Unlock()

				t0 := time.Now()
				status, body, err := srv.post(r, client)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6

				mu.Lock()
				doneBody[r.key] = true
				replies = append(replies, reply{r, class, status, body, ms, err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	st := srv.srv.Stats()
	srv.stop()

	res := opResult{attempted: len(replies)}
	first := map[string]reply{}
	var joins int
	for _, r := range replies {
		if tr == nil {
			s.classN[r.class]++
		}
		ok, err := s.checkReply(r, first)
		if err != nil && res.mismatch == nil {
			res.mismatch = err
		}
		if !ok {
			res.failed++
			continue
		}
		if r.class == classJoin {
			joins++
		}
		if tr == nil && r.status == http.StatusOK {
			s.lat[r.class] = append(s.lat[r.class], r.ms)
		}
	}
	if tr == nil {
		s.reqPerS = append(s.reqPerS, float64(len(replies))/wall)
	}
	tr.add("serve.campaigns", float64(st.Campaigns))
	tr.add("serve.dedup_hits", float64(st.DedupHits))
	tr.add("serve.joins", float64(joins))
	if sk := st.Skeletons; sk != nil {
		tr.add("skeleton.hits_disk", float64(sk.Disk))
		tr.add("skeleton.hits_mem", float64(sk.Memory))
		tr.add("skeleton.captured", float64(sk.Captured))
	}
	if regenGolden {
		if err := s.golden.check(s.got); err != nil {
			res.mismatch = err
		}
	}
	return res
}

// checkReply checks one reply against the first reply to the same body in
// this stream (byte for byte) and against the golden reply. ok is false
// for a failed request: a transport error, a mismatch, or the known defect.
func (s *serveMix) checkReply(r reply, first map[string]reply) (ok bool, err error) {
	if r.err != nil {
		return false, fmt.Errorf("%s: %w", r.req.key, r.err)
	}
	if f, seen := first[r.req.key]; seen {
		if f.status != r.status || !bytes.Equal(f.body, r.body) {
			return false, fmt.Errorf("%s: repeat differs from the first reply (%d %q vs %d %q)",
				r.req.key, r.status, r.body, f.status, f.body)
		}
	} else {
		first[r.req.key] = r
	}
	if regenGolden {
		s.got[r.req.key] = goldenResponse{r.status, withoutSource(r.body)}
		return r.status == http.StatusOK, nil
	}
	want, known := s.want[r.req.key]
	switch {
	case !known:
		return false, fmt.Errorf("%s: no golden reply", r.req.key)
	case want.Status == http.StatusInternalServerError && strings.Contains(want.Body, defectMarker):
		if r.status == http.StatusInternalServerError && strings.Contains(string(r.body), defectMarker) {
			return false, nil // the known defect: failed, but as expected
		}
		if r.status >= 400 && r.status < 500 {
			return true, nil // refused up front: the defect is fixed
		}
		return false, fmt.Errorf("%s: got %d %q, want the known defect or a 4xx refusal", r.req.key, r.status, r.body)
	case r.status != want.Status || withoutSource(r.body) != want.Body:
		return false, fmt.Errorf("%s: got %d %q, want %d %q", r.req.key, r.status, r.body, want.Status, want.Body)
	}
	return true, nil
}

// sourceField matches the provenance of an /optimize reply's cost tables:
// "computed" for the first request of a spec and "memory" for later ones,
// so it depends on arrival order while every simulated field does not.
var sourceField = regexp.MustCompile(`"modelSource": "[a-z]+"`)

// withoutSource returns a reply body with its table provenance blanked.
func withoutSource(body []byte) string {
	return sourceField.ReplaceAllString(string(body), `"modelSource": "*"`)
}

func (s *serveMix) report() map[string]float64 {
	var total float64
	for _, n := range s.classN {
		total += float64(n)
	}
	share := func(class string) float64 { return float64(s.classN[class]) / total }
	return map[string]float64{
		"serve.cold_share": share(classCold),
		"serve.memo_share": share(classMemo),
		"serve.hit_share":  share(classHit),
		"serve.join_share": share(classJoin),
		"cold_p50_ms":      quantile(s.lat[classCold], 0.5),
		"cold_p90_ms":      quantile(s.lat[classCold], 0.9),
		"hit_p50_ms":       quantile(s.lat[classHit], 0.5),
		"hit_p99_ms":       quantile(s.lat[classHit], 0.99),
		"req_per_s":        median(s.reqPerS),
		"cold_n":           float64(len(s.lat[classCold])),
		"hit_n":            float64(len(s.lat[classHit])),
	}
}

// opsPerRun makes a run send a fixed number of streams (see
// serveStreamSeconds), at least one untraced and one traced.
func (s *serveMix) opsPerRun(budget time.Duration) int {
	return max(2, int(budget.Seconds()/serveStreamSeconds))
}

func (s *serveMix) close() { mapping.ResetTableMemo() }
