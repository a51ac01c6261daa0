package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"texcache/internal/exp"
)

// runBatch measures paper-batch: texsim processes run back to back, each
// timed from spawn to exit, and each experiment's text output is checked
// against its golden. One process is one block (see fastTime); one takes
// 7-11s on two CPUs, so a run starts one per four seconds of --seconds, three
// at 10s, to have a fast end to take.
func runBatch(ctx context.Context, e *env, g *gen) (*outcome, error) {
	ids := exp.IDs()
	// Setup: load the goldens, then time texsim start-up alone with -list
	// (spawn to exit) and check that it lists the registry the goldens
	// cover.
	goldens, err := loadGoldens(e.root)
	if err != nil {
		return nil, err
	}
	texsim := filepath.Join(e.bin, "texsim")
	setup, err := repeatSetup(func() error {
		out, err := command(ctx, texsim, "-list").Output()
		if err != nil {
			return fmt.Errorf("texsim -list: %w", err)
		}
		if got := strings.Fields(string(out)); len(got) != len(ids)+1 {
			return fmt.Errorf("texsim -list: %d experiments, want %d", len(got)-1, len(ids))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	req, err := decodeRequest(g.body(0))
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var walls, cpus, rss, p50s, rates, all []float64
	runs := int((e.seconds + 4*time.Second - 1) / (4 * time.Second))
	for run := 0; run < runs; run++ {
		var stdout, stderr bytes.Buffer
		cmd := command(ctx, texsim, "-exp", "all", "-scale", strconv.Itoa(req.Scale))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("texsim -exp all: %w: %s", err, stderr.String())
		}
		wall := time.Since(t0)
		u := usageOf(cmd.ProcessState)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, u.cpu.Seconds())
		rss = append(rss, u.peakMB)

		o.attempted += len(ids)
		got, err := parseBatch(stdout.String(), ids)
		o.failed += len(ids) - len(got)
		if err != nil {
			fmt.Printf("paper-batch: %v\n", err)
		}
		var lat []float64
		for id, r := range got {
			if r.text != goldens[id] {
				o.wrong++
				fmt.Printf("paper-batch: %s differs from testdata/golden/%s.txt\n", id, id)
				continue
			}
			lat = append(lat, float64(r.elapsed)/float64(time.Millisecond))
		}
		p50s = append(p50s, median(lat))
		fmt.Printf("block %d: %d correct in %.3fs, cpu %.2fs, p50 %.4gms\n", run+1, len(lat), wall.Seconds(), u.cpu.Seconds(), median(lat))
		rates = append(rates, float64(len(lat))/wall.Seconds())
		all = append(all, lat...)
	}
	o.metrics = map[string]metric{
		"setup_s":        {setup, "s"},
		"wall_s":         {quantile(walls, fastTime), "s"},
		"cpu_s":          {quantile(cpus, fastTime), "s"},
		"peak_rss_mb":    {median(rss), "MB"},
		"latency_p50_ms": {quantile(p50s, fastTime), "ms"},
		"throughput_rps": {quantile(rates, fastRate), "1/s"},
	}
	o.extra = map[string]metric{
		"blocks":             {float64(len(walls)), "count"},
		"completed":          {float64(len(all)), "count"},
		"timed_wall_s":       {sum(walls), "s"},
		"latency_p50_all_ms": {median(all), "ms"},
	}
	if p, v, ok := tailPercentile(all); ok {
		o.extra[fmt.Sprintf("latency_tail_p%g_ms", p)] = metric{v, "ms"}
	}
	return o, nil
}
