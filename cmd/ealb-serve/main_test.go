package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestHTTPServerLimits: the server ealb-serve runs bounds the header's
// arrival time and size and an idle connection's life, and sets no
// whole-request deadline that would cut a long NDJSON stream.
func TestHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer(":8080", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.MaxHeaderBytes != maxHeaderBytes {
		t.Errorf("limits: header timeout %v, idle timeout %v, header bytes %d; want %v, %v, %d",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes, readHeaderTimeout, idleTimeout, maxHeaderBytes)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("read timeout %v, write timeout %v; want neither", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// serveLocal serves srv on a loopback port until the test ends and
// returns the address.
func serveLocal(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestHalfHeaderClosed: a client that sends half a request header and
// then stalls is disconnected once the header timeout has passed, while
// a complete request on the same server is answered. The test shortens
// the header timeout of the server newHTTPServer builds, so that it
// waits a fraction of a second rather than readHeaderTimeout.
func TestHalfHeaderClosed(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	srv.ReadHeaderTimeout = 300 * time.Millisecond
	addr := serveLocal(t, srv)

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("complete request: body %q, error %v", body, err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// No blank line follows, so the header never ends.
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: example\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v with half a header (read %q)", elapsed, got)
	}
	if elapsed < srv.ReadHeaderTimeout {
		t.Fatalf("connection closed after %v, before the %v header timeout (read %q, error %v)", elapsed, srv.ReadHeaderTimeout, got, err)
	}
}

// TestOversizedHeaderRefused: a request header past maxHeaderBytes is
// refused with 431 and never reaches the handler.
func TestOversizedHeaderRefused(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler reached with an oversized header")
	}))
	addr := serveLocal(t, srv)
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("a", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("status %d, want 431", resp.StatusCode)
	}
}
