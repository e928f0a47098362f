package client_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"elsi/internal/client"
	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/protocol"
	"elsi/internal/server"
)

// hostileTCP serves one connection: it reads one request frame, hands
// the raw connection to reply, and then holds the connection open until
// the test ends. A client that waits for bytes the server never sends
// therefore hangs instead of failing on EOF, and the caller's timeout
// catches it.
func hostileTCP(t *testing.T, reply func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := protocol.ReadFrame(c); err != nil {
			t.Errorf("hostile server: reading the request: %v", err)
			return
		}
		reply(c)
		<-done
	}()
	t.Cleanup(func() {
		close(done)
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

func writeFrame(t *testing.T, c net.Conn, body []byte) {
	if err := protocol.WriteFrame(c, body); err != nil {
		t.Errorf("hostile server: %v", err)
	}
}

func writePrefix(t *testing.T, c net.Conn, n uint32) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], n)
	if _, err := c.Write(prefix[:]); err != nil {
		t.Errorf("hostile server: %v", err)
	}
}

// TestTCPHostileServer checks that every malformed or refusing reply
// ends the round trip with an error instead of an answer or a hang.
func TestTCPHostileServer(t *testing.T) {
	cases := []struct {
		name  string
		reply func(t *testing.T, c net.Conn)
		want  error
	}{
		{"closes mid-frame", func(t *testing.T, c net.Conn) {
			writePrefix(t, c, 3)
			if _, err := c.Write([]byte{protocol.StatusOK}); err != nil {
				t.Errorf("hostile server: %v", err)
			}
			c.Close()
		}, protocol.ErrTruncated},
		{"length prefix above MaxFrame", func(t *testing.T, c net.Conn) {
			writePrefix(t, c, protocol.MaxFrame+1)
		}, protocol.ErrFrameTooLarge},
		{"undecodable body", func(t *testing.T, c net.Conn) {
			writeFrame(t, c, []byte{protocol.StatusOK, 0x7f})
		}, protocol.ErrBadPayload},
		{"overloaded status", func(t *testing.T, c net.Conn) {
			writeFrame(t, c, protocol.AppendResponse(nil, protocol.Response{Status: protocol.StatusOverloaded}))
		}, engine.ErrOverloaded},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			addr := hostileTCP(t, func(c net.Conn) { tc.reply(t, c) })
			cl, err := client.DialTCP(addr)
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := cl.PointQuery(geo.Point{X: 0.5, Y: 0.5})
				errc <- err
			}()
			select {
			case err := <-errc:
				cl.Close()
				if !errors.Is(err, tc.want) {
					t.Errorf("PointQuery error = %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				// No cl.Close here: it would wait for the hung round trip.
				// The server's cleanup closes its end, which unblocks it.
				t.Fatal("PointQuery hung on a hostile reply")
			}
		})
	}
}

// TestHTTPErrorStatuses checks the HTTP client's mapping of the
// server's refusal statuses back to the engine's errors.
func TestHTTPErrorStatuses(t *testing.T) {
	cases := []struct {
		status int
		check  func(error) bool
		want   string
	}{
		{http.StatusTooManyRequests, func(err error) bool { return errors.Is(err, engine.ErrOverloaded) }, "engine.ErrOverloaded"},
		{http.StatusServiceUnavailable, func(err error) bool { return errors.Is(err, engine.ErrClosed) }, "engine.ErrClosed"},
		{http.StatusInternalServerError, func(err error) bool { return err != nil && err.Error() == "server: boom" }, `"server: boom"`},
	}
	for _, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(tc.status)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "boom"})
		}))
		hc := &client.HTTP{Base: srv.URL}
		if _, err := hc.PointQuery(geo.Point{X: 0.5, Y: 0.5}); !tc.check(err) {
			t.Errorf("HTTP %d: PointQuery error = %v, want %s", tc.status, err, tc.want)
		}
		srv.Close()
	}
}
