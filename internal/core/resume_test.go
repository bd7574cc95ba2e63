package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scholarcloud/internal/blinding"
	"scholarcloud/internal/metrics"
	"scholarcloud/internal/mux"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/tlssim"
)

// plainGet fetches the origin's page with an absolute-URI GET on a fresh
// client connection and returns how long it took in virtual time.
func (w *coreWorld) plainGet() (time.Duration, error) {
	start := w.env.Clock.Now()
	conn, err := w.client.DialTCP("101.6.6.6:8118")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET http://203.0.113.10/ HTTP/1.1\r\nHost: 203.0.113.10\r\n\r\n")
	var got []byte
	buf := make([]byte, 512)
	for !strings.Contains(string(got), "hello") {
		n, err := conn.Read(buf)
		if err != nil {
			return 0, fmt.Errorf("response so far %q: %w", got, err)
		}
		got = append(got, buf[:n]...)
	}
	return w.env.Clock.Now().Sub(start), nil
}

func wantChannels(t *testing.T, side string, full, resumed *metrics.Counter, wantFull, wantResumed int64) {
	t.Helper()
	if f, r := full.Value(), resumed.Value(); f != wantFull || r != wantResumed {
		t.Errorf("%s: %d full + %d resumed channel handshakes, want %d + %d", side, f, r, wantFull, wantResumed)
	}
}

// TestPlainChannelsResumeWithinCarrier: on one carrier only the first
// plain stream runs the full handshake; later ones resume and save a
// border round trip. A new carrier starts over with a full handshake.
func TestPlainChannelsResumeWithinCarrier(t *testing.T) {
	w := buildCoreWorld(t, true)
	var first, later time.Duration
	w.run(t, func() error {
		var err error
		if first, err = w.plainGet(); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if later, err = w.plainGet(); err != nil {
				return err
			}
		}
		return nil
	})
	wantChannels(t, "domestic", &w.dom.chanFull, &w.dom.chanResumed, 1, 2)
	wantChannels(t, "remote", &w.remote.chanFull, &w.remote.chanResumed, 1, 2)
	// The abbreviated handshake skips the key-share round trip across
	// the 70 ms border link.
	if saved := first - later; saved < 140*time.Millisecond {
		t.Errorf("first GET %v, resumed GET %v: want at least one border RTT saved", first, later)
	}

	w.run(t, func() error {
		w.dom.Rotate(w.dom.Epoch) // a new carrier, same epoch
		_, err := w.plainGet()
		return err
	})
	wantChannels(t, "domestic after a new carrier", &w.dom.chanFull, &w.dom.chanResumed, 2, 2)
	wantChannels(t, "remote after a new carrier", &w.remote.chanFull, &w.remote.chanResumed, 2, 2)
}

// TestResumptionOffIsFullHandshakePerStream pins the simulator's
// setting: without ResumeChannels every plain stream runs the full
// handshake.
func TestResumptionOffIsFullHandshakePerStream(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		for i := 0; i < 3; i++ {
			if _, err := w.plainGet(); err != nil {
				return err
			}
		}
		return nil
	})
	wantChannels(t, "domestic", &w.dom.chanFull, &w.dom.chanResumed, 3, 0)
	wantChannels(t, "remote", &w.remote.chanFull, &w.remote.chanResumed, 3, 0)
}

// TestFailedResumptionRetriesFullHandshake serves the second plain
// stream from a fake remote that answers the session offer with a short
// ServerHello and a Finished it cannot have computed. The domestic proxy
// must hide that failure: it drops the session and opens the channel
// again with a full handshake.
func TestFailedResumptionRetriesFullHandshake(t *testing.T) {
	w := buildCoreWorld(t, true)
	channels := tlssim.NewSessionCache(w.env.Clock.Now)
	var opens atomic.Int32
	accept := func(meta []byte) (net.Conn, error) {
		if opens.Add(1) != 2 {
			return w.remote.acceptStream(meta, channels)
		}
		near, far := netx.Pipe(w.env)
		w.env.Spawn.Go(func() {
			defer far.Close()
			var hdr [5]byte
			if _, err := io.ReadFull(far, hdr[:]); err != nil {
				return
			}
			if _, err := io.CopyN(io.Discard, far, int64(binary.BigEndian.Uint16(hdr[3:]))); err != nil {
				return
			}
			shortHello := append([]byte{tlssim.RecordHandshake, 3, 3, 0, 33, 0x02}, make([]byte, 32)...)
			forged := append([]byte{tlssim.RecordHandshake, 3, 3, 0, 29}, make([]byte, 29)...)
			far.Write(append(shortHello, forged...))
			io.Copy(io.Discard, far)
		})
		return near, nil
	}
	ln, err := w.remoteH.Listen("tcp", ":8444")
	if err != nil {
		t.Fatal(err)
	}
	w.env.Spawn.Go(func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mux.NewSession(blinding.WrapConn(conn, w.remote.scheme()), w.env, accept)
		}
	})
	d := &Domestic{
		Env:            w.env,
		DialRemote:     func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.7:8444") },
		Secret:         w.dom.Secret,
		Whitelist:      w.whitelist,
		VerifyRemote:   w.dom.VerifyRemote,
		RemoteName:     w.dom.RemoteName,
		ResumeChannels: true,
	}
	w.run(t, func() error {
		for i := 0; i < 2; i++ {
			conn, err := d.openPlain("203.0.113.10:80")
			if err != nil {
				return fmt.Errorf("channel %d: %w", i, err)
			}
			fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: 203.0.113.10\r\n\r\n")
			buf := make([]byte, 512)
			n, err := conn.Read(buf)
			conn.Close()
			if err != nil || !strings.Contains(string(buf[:n]), "hello") {
				return fmt.Errorf("channel %d: read %q, %v", i, buf[:n], err)
			}
		}
		return nil
	})
	if n := opens.Load(); n != 3 {
		t.Errorf("remote saw %d stream opens, want 3 (full, failed resume, full retry)", n)
	}
	wantChannels(t, "domestic", &d.chanFull, &d.chanResumed, 2, 0)
}
