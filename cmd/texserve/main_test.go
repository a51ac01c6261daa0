package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"testing"
	"time"
)

// startHTTPServer serves the texserve handler through newHTTPServer on a
// loopback port, after checking the timeouts newHTTPServer sets (a
// header and an idle timeout, no read or write timeout), with the
// header timeout shortened to headerTimeout.
func startHTTPServer(t *testing.T, headerTimeout time.Duration) string {
	t.Helper()
	s, err := newServer(serverConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(s.Handler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("newHTTPServer timeouts: header %v idle %v read %v write %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestHeaderTimeoutClosesStalledConnection: a client that sends half a
// request line and then stalls is disconnected once the header timeout
// passes, instead of holding its connection forever.
func TestHeaderTimeoutClosesStalledConnection(t *testing.T) {
	addr := startHTTPServer(t, 200*time.Millisecond)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled connection still open after %v", time.Since(start))
	}
}

// TestKeepAliveSurvivesHeaderTimeout: a keep-alive client whose
// requests follow each other, with pauses longer than the header
// timeout, is served on one reused connection.
func TestKeepAliveSurvivesHeaderTimeout(t *testing.T) {
	const headerTimeout = 100 * time.Millisecond
	addr := startHTTPServer(t, headerTimeout)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		reused := false
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if i > 0 && !reused {
			t.Errorf("request %d opened a new connection; keep-alive was dropped", i)
		}
		time.Sleep(2 * headerTimeout)
	}
}
