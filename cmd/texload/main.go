// Command texload is the texserve load-generator client: it posts one
// ExperimentRequest document — built from flags exactly as cmd/texsim
// builds its own, or loaded from a wire-form file — at a running server
// from N concurrent clients and reports throughput, latency percentiles
// and the status-code mix.
//
// Usage:
//
//	texload -url http://127.0.0.1:8321 -clients 8 -n 32 -exp fig5.2 -scale 8
//	texload -url http://127.0.0.1:8321 -clients 4 -n 16 \
//	    -scene goblet -configs 32768:128:2,16384:64:1
//	texload -url http://127.0.0.1:8321 -request sweep.json -tenant bench
//	texload -url http://127.0.0.1:8321 -scene goblet -arch both -n 4
//
// -configs takes SIZE:LINE:WAYS[:POLICY] triples (bytes; policy lru,
// fifo or random) and makes the request a custom sweep over -scene.
// -arch instead posts a cycle-level architecture comparison (blocking,
// prefetch or both) over -scene; -configs optionally overrides the
// cache design point.
// There is no -render-workers flag: texserve renders every request
// through its one shared trace cache, sized by its own -render-workers,
// and ignores a request's render_workers.
// The exit status encodes the verdict scripts care about: 0 when at
// least one request completed and the server returned no 5xx, 1
// otherwise — `make serve-smoke` is exactly that check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"texcache"
	"texcache/internal/load"
)

func main() {
	os.Exit(run())
}

// parseConfigs turns "SIZE:LINE:WAYS[:POLICY],..." into wire cache
// configurations.
func parseConfigs(s string) ([]texcache.RequestCacheConfig, error) {
	var out []texcache.RequestCacheConfig
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("config %q: want SIZE:LINE:WAYS[:POLICY]", part)
		}
		nums := make([]int, 3)
		for i := range nums {
			v, err := strconv.Atoi(fields[i])
			if err != nil {
				return nil, fmt.Errorf("config %q: %v", part, err)
			}
			nums[i] = v
		}
		cc := texcache.RequestCacheConfig{SizeBytes: nums[0], LineBytes: nums[1], Ways: nums[2]}
		if len(fields) == 4 {
			cc.Policy = fields[3]
		}
		out = append(out, cc)
	}
	return out, nil
}

// buildRequest assembles the request body from flags or a wire file.
func buildRequest(reqFile, exps, scenes, scene, configs, arch string, scale int, tenant string) ([]byte, error) {
	if reqFile != "" {
		return os.ReadFile(reqFile)
	}
	req := texcache.ExperimentRequest{Tenant: tenant, Scale: scale}
	if exps != "" && exps != "all" {
		req.Experiments = strings.Split(exps, ",")
	}
	if scenes != "" {
		req.Scenes = strings.Split(scenes, ",")
	}
	if scene != "" {
		req.Scene = scene
		if arch == "" || configs != "" {
			cfgs, err := parseConfigs(configs)
			if err != nil {
				return nil, err
			}
			req.Configs = cfgs
		}
	}
	if arch != "" {
		req.Architecture = &texcache.RequestArchitecture{Pipeline: arch}
	}
	if err := texcache.ValidateRequest(texcache.NormalizeRequest(req)); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

// getToStdout fetches one server path and copies the body to stdout —
// the scriptable way to read /metrics or /healthz after a burst.
func getToStdout(base, path string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// captureOne posts the request body once and writes the full response
// stream to a file, so scripts can compare repeat responses byte for
// byte (the serve-smoke result-cache check).
func captureOne(ctx context.Context, base, tenant string, body []byte, outPath string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Texcache-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/experiments: status %d: %s", resp.StatusCode, data)
	}
	return os.WriteFile(outPath, data, 0o644)
}

func run() int {
	url := flag.String("url", "http://127.0.0.1:8321", "texserve base URL")
	clients := flag.Int("clients", 4, "concurrent posting clients")
	n := flag.Int("n", 0, "total requests (default: one per client)")
	tenant := flag.String("tenant", "", "tenant name sent with each request")
	exps := flag.String("exp", "", "experiment IDs for the posted request (comma-separated, or 'all')")
	scenes := flag.String("scenes", "", "scene subset for the posted request")
	scene := flag.String("scene", "", "sweep scene (with -configs)")
	configs := flag.String("configs", "", "sweep cache configs, SIZE:LINE:WAYS[:POLICY],...")
	arch := flag.String("arch", "", "architecture pipelines (blocking, prefetch or both) to compare over -scene instead of a sweep")
	scale := flag.Int("scale", 8, "resolution divisor for the posted request")
	reqFile := flag.String("request", "", "post this wire-form JSON request file instead of building one from flags")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall run deadline")
	jsonOut := flag.Bool("json", false, "print the stats as JSON instead of a summary line")
	getPath := flag.String("get", "", "GET this server path (e.g. /metrics), print the body to stdout and exit")
	capture := flag.String("capture", "", "post the request once and write the response body to this file instead of bursting")
	flag.Parse()

	if *scene == "" && *configs != "" {
		fmt.Fprintln(os.Stderr, "texload: -configs needs -scene")
		return 2
	}
	if *getPath != "" {
		if err := getToStdout(*url, *getPath, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "texload:", err)
			return 1
		}
		return 0
	}
	body, err := buildRequest(*reqFile, *exps, *scenes, *scene, *configs, *arch, *scale, *tenant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "texload:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	if *capture != "" {
		if err := captureOne(ctx, *url, *tenant, body, *capture); err != nil {
			fmt.Fprintln(os.Stderr, "texload:", err)
			return 1
		}
		return 0
	}

	stats, err := load.Run(ctx, load.Options{
		BaseURL:  *url,
		Clients:  *clients,
		Requests: *n,
		Body:     body,
		Tenant:   *tenant,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "texload:", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(stats)
	} else {
		fmt.Println(stats)
	}
	if stats.Completed == 0 || stats.ServerErrors > 0 {
		fmt.Fprintln(os.Stderr, "texload: FAIL: zero completed requests or server errors seen")
		return 1
	}
	return 0
}
