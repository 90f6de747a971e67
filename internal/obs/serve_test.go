package obs

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDisconnectsStalledHeader: a client that sends half a request
// line and then stalls is disconnected by NewServer's ReadHeaderTimeout
// instead of holding a goroutine and a descriptor forever. The test
// shortens the timeout and then only waits for the close, so a loaded
// machine makes it slower, never red.
func TestServerDisconnectsStalledHeader(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("NewServer left a read timeout unset: header %v, read %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none (exact solves and pprof profiles outlast any fixed one)", srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 20 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	// The client sets no deadline, so this returns only once the server
	// drops the connection (EOF or a reset, either is the disconnect).
	_, _ = io.ReadAll(conn)
}
