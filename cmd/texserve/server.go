package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"texcache"
)

// maxRequestBody bounds the POST body: requests are small JSON
// documents, and a megabyte is already hundreds of cache configurations.
const maxRequestBody = 1 << 20

// serverConfig parameterizes newServer; the zero value of each field
// means its default.
type serverConfig struct {
	// Workers bounds how many requests replay concurrently (default
	// GOMAXPROCS via the scheduler's floor of 1... set by main).
	Workers int
	// Queue is the per-tenant waiter cap; beyond it requests get 429.
	Queue int
	// RetryAfter is the interval advertised on 429 responses.
	RetryAfter time.Duration
	// TraceDir, when set, attaches a persistent trace store tier.
	TraceDir string
	// ResultDir, when set, attaches a persistent tier to the shared
	// result cache: finished NDJSON streams survive restarts as
	// <sha256(key)>.result files.
	ResultDir string
	// RenderWorkers bounds tile-parallel rasterization per render.
	RenderWorkers int
}

// server is the texserve HTTP state: one shared single-flight trace
// cache (the coalescing tier — identical concurrent requests cost one
// render), one shared result cache (the memoization tier — repeated
// requests replay nothing and are served stored bytes), one fair
// scheduler (the capacity tier), and the handler mux.
type server struct {
	traces     *texcache.TraceCache
	results    *texcache.ResultCache
	sched      *scheduler
	retryAfter time.Duration
	mux        *http.ServeMux
}

func newServer(cfg serverConfig) (*server, error) {
	tc := texcache.NewTraceCache()
	tc.RenderWorkers = cfg.RenderWorkers
	if cfg.TraceDir != "" {
		store, err := texcache.OpenTraceStore(cfg.TraceDir)
		if err != nil {
			return nil, err
		}
		tc.Store = store
	}
	// One result cache for all tenants: results are pure functions of
	// the request (tenant and worker counts are erased from the key), so
	// cross-tenant sharing leaks nothing and saves every repeat.
	rc := texcache.NewResultCache()
	if cfg.ResultDir != "" {
		if err := rc.AttachDir(cfg.ResultDir); err != nil {
			return nil, err
		}
	}
	if cfg.Queue == 0 {
		cfg.Queue = 16
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	s := &server{
		traces:     tc,
		results:    rc,
		sched:      newScheduler(cfg.Workers, cfg.Queue),
		retryAfter: cfg.RetryAfter,
		mux:        http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", expvar.Handler())
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler is the server's root handler; every response carries the wire
// version header.
func (s *server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Texcache-Api-Version", fmt.Sprint(texcache.APIVersion))
		s.mux.ServeHTTP(w, r)
	})
}

// writeError sends the typed JSON error body with its mapped status.
func writeError(w http.ResponseWriter, err error) {
	re := texcache.WrapRequestError(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(re.HTTPStatus())
	json.NewEncoder(w).Encode(re)
}

// handleExperiments serves the request API: GET lists the experiment
// registry, POST runs one ExperimentRequest and streams its NDJSON rows.
func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			V           int      `json:"v"`
			Experiments []string `json:"experiments"`
		}{texcache.APIVersion, texcache.ExperimentIDs()})
	case http.MethodPost:
		s.handleRun(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		re := texcache.RequestErrorf(texcache.RequestCodeBadRequest, "method %s not allowed; use GET or POST", r.Method)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMethodNotAllowed)
		json.NewEncoder(w).Encode(re)
	}
}

// handleRun decodes, validates, schedules and streams one request.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	reg := texcache.AttachedMetrics().Sub("server")
	reg.Counter("requests").Inc()

	var req texcache.ExperimentRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields() // additive versioning: unknown fields mean a newer client
	if err := dec.Decode(&req); err != nil {
		writeError(w, texcache.RequestErrorf(texcache.RequestCodeBadRequest, "parsing request body: %v", err))
		return
	}
	req = texcache.NormalizeRequest(req)
	if err := texcache.ValidateRequest(req); err != nil {
		writeError(w, err)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Texcache-Tenant")
	}

	// Admission: one scheduler slot per running request, fair across
	// tenants, 429 once this tenant's queue is full.
	if err := s.sched.acquire(r.Context(), tenant); err != nil {
		if re := texcache.WrapRequestError(err); re.Code == texcache.RequestCodeSaturated {
			w.Header().Set("Retry-After", fmt.Sprint(int(s.retryAfter.Seconds())))
			writeError(w, re)
			return
		}
		// Client went away while queued; nothing useful to write.
		return
	}
	defer s.sched.release()

	// From here the stream is exactly texsim -json: the same NDJSON
	// serializer over the same result channel, fronted by the shared
	// result cache (warm repeats of any request kind are served stored
	// bytes without touching the engine). Per-result errors append a
	// typed trailer line (the row stream for successful results is
	// untouched, preserving byte-identity).
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	cw := &trackingWriter{w: w}
	start := time.Now()
	streamErr := texcache.RunNDJSON(r.Context(), req, cw, func(res texcache.ExperimentResult) {
		if res.Err != nil {
			json.NewEncoder(cw).Encode(texcache.WrapRequestError(res.Err))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}, texcache.WithTraceProvider(s.traces), texcache.WithResultCache(s.results))
	reg.Timer("request").Observe(time.Since(start))
	if streamErr != nil {
		if !cw.wrote {
			// Nothing streamed yet (unknown experiment, bad scene): the
			// client still gets the typed JSON error with its status code.
			// Once rows are out, per-result errors already appended their
			// trailer line and the status is fixed at 200.
			writeError(w, streamErr)
		}
		reg.Counter("request_errors").Inc()
	} else {
		reg.Counter("completed").Inc()
	}
}

// trackingWriter records whether any body bytes have been written, which
// decides between a typed error response and an in-stream trailer.
type trackingWriter struct {
	w     io.Writer
	wrote bool
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		t.wrote = true
	}
	return t.w.Write(p)
}

// handleHealthz is the liveness probe.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
