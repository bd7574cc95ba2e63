package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"scholarcloud/internal/fleet"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/pac"
	"scholarcloud/internal/pki"
	"scholarcloud/internal/tlssim"
)

// coreWorld wires domestic + remote proxies and an origin across a
// border, without the GFW (censorship interplay is covered by
// internal/experiments; these tests pin the proxy mechanics).
type coreWorld struct {
	n        *netsim.Network
	env      netx.Env
	client   *netsim.Host
	domestic *netsim.Host
	remoteH  *netsim.Host
	origin   *netsim.Host
	usZone   *netsim.Zone

	remote    *Remote
	dom       *Domestic
	whitelist *pac.Config
	ca        *pki.CA
}

func newCoreWorld(t *testing.T) *coreWorld { return buildCoreWorld(t, false) }

// buildCoreWorld is newCoreWorld with the domestic proxy's
// ResumeChannels set as given.
func buildCoreWorld(t *testing.T, resume bool) *coreWorld {
	t.Helper()
	n := netsim.New(71)
	t.Cleanup(n.Stop)
	cn := n.AddZone("cn")
	us := n.AddZone("us")
	n.Connect(cn, us, netsim.LinkConfig{Delay: 70 * time.Millisecond})
	acc := netsim.LinkConfig{Delay: 2 * time.Millisecond}
	w := &coreWorld{
		n:        n,
		env:      n.Env(),
		client:   n.AddHost("client", "10.0.0.2", cn, acc),
		domestic: n.AddHost("domestic", "101.6.6.6", cn, acc),
		remoteH:  n.AddHost("remote", "198.51.100.7", us, acc),
		origin:   n.AddHost("origin", "203.0.113.10", us, acc),
		usZone:   us,
	}

	ca, err := pki.NewCA("core-test-ca", n.Clock().Now, n.Env().Rand)
	if err != nil {
		t.Fatal(err)
	}
	w.ca = ca
	id, err := ca.Issue("remote.scholarcloud.example", true)
	if err != nil {
		t.Fatal(err)
	}

	// Echo origin on :7 and a tiny HTTP responder on :80.
	eln, err := w.origin.Listen("tcp", ":7")
	if err != nil {
		t.Fatal(err)
	}
	n.Scheduler().Go(func() {
		for {
			conn, err := eln.Accept()
			if err != nil {
				return
			}
			n.Scheduler().Go(func() { defer conn.Close(); io.Copy(conn, conn) })
		}
	})
	hln, err := w.origin.Listen("tcp", ":80")
	if err != nil {
		t.Fatal(err)
	}
	n.Scheduler().Go(func() {
		for {
			conn, err := hln.Accept()
			if err != nil {
				return
			}
			n.Scheduler().Go(func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				if _, err := conn.Read(buf); err != nil {
					return
				}
				conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"))
			})
		}
	})

	secret := []byte("tunnel-secret")
	w.remote = &Remote{
		Env: w.env,
		DialHost: func(host string, port int) (net.Conn, error) {
			return w.remoteH.DialTCP(fmt.Sprintf("%s:%d", host, port))
		},
		Secret:   secret,
		Identity: id,
	}
	rln, err := w.remoteH.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	n.Scheduler().Go(func() { w.remote.Serve(rln) })

	w.whitelist = pac.New("101.6.6.6:8118", []string{"origin.example", "203.0.113.10"})
	w.dom = &Domestic{
		Env:            w.env,
		DialRemote:     func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.7:8443") },
		Secret:         secret,
		Whitelist:      w.whitelist,
		VerifyRemote:   ca.Verifier(),
		RemoteName:     "remote.scholarcloud.example",
		ResumeChannels: resume,
	}
	pln, err := w.domestic.Listen("tcp", ":8118")
	if err != nil {
		t.Fatal(err)
	}
	proxy := w.dom.Proxy()
	n.Scheduler().Go(func() { proxy.Serve(pln) })
	return w
}

func (w *coreWorld) run(t *testing.T, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	w.n.Scheduler().Go(func() { done <- fn() })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("simulation deadlocked")
	}
}

func TestSecureStreamThroughBothProxies(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return err
		}
		msg := []byte("end to end through the split proxy")
		conn.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, got); err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("echo = %q", got)
		}
		return nil
	})
	if st := w.remote.Stats(); st.StreamsOpened != 1 {
		t.Errorf("remote stats = %+v", st)
	}
}

func TestPlainHTTPUsesPerStreamChannel(t *testing.T) {
	w := newCoreWorld(t)
	// Watch the border: the HTTP payload between the proxies must be
	// wrapped (blinded mux + per-stream TLS) — "hello" never in the clear
	// between domestic and remote.
	var leaked bool
	w.n.SetTrace(func(pkt *netsim.Packet) {
		interProxy := (pkt.Src.IP == "101.6.6.6" && pkt.Dst.IP == "198.51.100.7") ||
			(pkt.Src.IP == "198.51.100.7" && pkt.Dst.IP == "101.6.6.6")
		if interProxy && bytes.Contains(pkt.Payload, []byte("hello")) {
			leaked = true
		}
	})
	defer w.n.SetTrace(nil)

	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		// Absolute-URI plain-HTTP request through the proxy.
		fmt.Fprintf(conn, "GET http://203.0.113.10/ HTTP/1.1\r\nHost: 203.0.113.10\r\n\r\n")
		var got []byte
		buf := make([]byte, 512)
		for !strings.Contains(string(got), "hello") {
			n, err := conn.Read(buf)
			if err != nil {
				t.Errorf("response so far %q, read error: %v", got, err)
				return nil
			}
			got = append(got, buf[:n]...)
		}
		return nil
	})
	if leaked {
		t.Error("plain-HTTP payload crossed the inter-proxy link unprotected")
	}
}

func TestWhitelistRefusalBeforeTunnel(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		err = connectThrough(conn, "forbidden.example:443")
		if err == nil {
			t.Error("off-whitelist CONNECT granted")
		}
		return nil
	})
	if st := w.remote.Stats(); st.StreamsOpened != 0 {
		t.Error("refused request still crossed the tunnel")
	}
	if st := w.dom.Stats(); st.Refused != 1 {
		t.Errorf("domestic stats = %+v", st)
	}
}

func TestTunnelPersistsAcrossStreams(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		for i := 0; i < 3; i++ {
			conn, err := w.client.DialTCP("101.6.6.6:8118")
			if err != nil {
				return err
			}
			if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
				return err
			}
			conn.Write([]byte{1})
			buf := make([]byte, 1)
			io.ReadFull(conn, buf)
			conn.Close()
		}
		return nil
	})
	// One carrier serves all three streams.
	if st := w.remote.Stats(); st.StreamsOpened != 3 {
		t.Errorf("streams = %d, want 3", st.StreamsOpened)
	}
}

func TestTunnelRecoversAfterCarrierLoss(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return err
		}
		conn.Close()

		// Kill the carrier (simulates a censor reset or remote restart).
		w.dom.Rotate(w.dom.Epoch) // tears the session down; same epoch

		conn2, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn2.Close()
		if err := connectThrough(conn2, "203.0.113.10:7"); err != nil {
			return fmt.Errorf("proxy did not recover: %w", err)
		}
		msg := []byte("after recovery")
		conn2.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn2, got); err != nil {
			return err
		}
		return nil
	})
}

func TestRemoteDropsNonBlindedPeer(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		// Speak valid-looking TLS (not blinded) at the remote: it must
		// drop the connection without answering.
		raw, err := w.client.DialTCP("198.51.100.7:8443")
		if err != nil {
			return err
		}
		defer raw.Close()
		tc := tlssim.Client(raw, tlssim.Config{ServerName: "remote.scholarcloud.example"})
		if err := tc.Handshake(); err == nil {
			t.Error("non-blinded TLS handshake with the remote succeeded")
		}
		return nil
	})
}

func TestPACHandlerServesPolicy(t *testing.T) {
	w := newCoreWorld(t)
	h := w.dom.PACHandler()
	resp := h.ServeHTTP(reqFor("/pac"), netsim.Addr{Net: "tcp", AP: netsim.AddrPort{IP: "10.0.0.2", Port: 1}})
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "FindProxyForURL") {
		t.Errorf("pac response = %d %q", resp.StatusCode, resp.Body)
	}
	resp = h.ServeHTTP(reqFor("/whitelist"), netsim.Addr{Net: "tcp", AP: netsim.AddrPort{IP: "10.0.0.2", Port: 1}})
	if !strings.Contains(string(resp.Body), "origin.example") {
		t.Errorf("whitelist = %q", resp.Body)
	}
}

func TestSplitHostPortValidation(t *testing.T) {
	for _, bad := range []string{"nohost", "h:0", "h:-1", "h:99999", "h:"} {
		if _, _, err := splitHostPort(bad); err == nil {
			t.Errorf("splitHostPort(%q) succeeded", bad)
		}
	}
	h, p, err := splitHostPort("scholar.google.com:443")
	if err != nil || h != "scholar.google.com" || p != 443 {
		t.Errorf("splitHostPort = %q %d %v", h, p, err)
	}
}

func reqFor(path string) *httpsim.Request {
	return &httpsim.Request{Method: "GET", Target: path, Host: "x", Header: map[string]string{}}
}

func TestFailoverToStandbyRemote(t *testing.T) {
	w := newCoreWorld(t)
	// Stand up a standby remote on a second host in the same zone.
	standbyHost := w.n.AddHost("standby", "198.51.100.8", w.usZone, netsim.LinkConfig{Delay: 2 * time.Millisecond})
	id, err := w.ca.Issue("remote.scholarcloud.example", true)
	if err != nil {
		t.Fatal(err)
	}
	standby := &Remote{
		Env: w.env,
		DialHost: func(host string, port int) (net.Conn, error) {
			return standbyHost.DialTCP(fmt.Sprintf("%s:%d", host, port))
		},
		Secret:   []byte("tunnel-secret"),
		Identity: id,
	}
	sln, err := standbyHost.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	w.n.Scheduler().Go(func() { standby.Serve(sln) })

	// The paper's manual-standby deployment is now expressed as a
	// degenerate two-member fleet: dead primary, live standby.
	pool, err := fleet.New(fleet.Config{
		Env:           w.env,
		NewSession:    w.dom.WrapCarrier,
		ProbeInterval: time.Hour, // keep probe traffic out of this test
		Seed:          7,
	}, []fleet.Endpoint{
		{Name: "primary", Dial: func() (net.Conn, error) {
			return nil, fmt.Errorf("primary remote is down")
		}},
		{Name: "standby", Dial: func() (net.Conn, error) {
			return w.domestic.DialTCP("198.51.100.8:8443")
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	w.dom.Fleet = pool
	// Primary remote goes away entirely.
	w.remote.Close()

	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return fmt.Errorf("failover did not engage: %w", err)
		}
		msg := []byte("served by the standby")
		conn.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, got); err != nil {
			return err
		}
		return nil
	})
	if standby.Stats().StreamsOpened == 0 {
		t.Error("standby remote never served a stream")
	}
	if st := w.dom.Stats(); st.Endpoint != "fleet" {
		t.Errorf("stats = %+v, want endpoint fleet", st)
	}
	for _, ep := range pool.Stats().Endpoints {
		if ep.Name == "standby" && ep.StreamsOpened == 0 {
			t.Error("pool never opened a stream on the standby endpoint")
		}
	}
}

func TestAllDialsFailReturnsTypedError(t *testing.T) {
	w := newCoreWorld(t)
	dead := func(name string) func() (net.Conn, error) {
		return func() (net.Conn, error) { return nil, fmt.Errorf("%s unreachable", name) }
	}
	pool, err := fleet.New(fleet.Config{
		Env:           w.env,
		NewSession:    w.dom.WrapCarrier,
		ProbeInterval: time.Hour,
		Seed:          7,
	}, []fleet.Endpoint{
		{Name: "primary", Dial: dead("primary")},
		{Name: "standby-1", Dial: dead("standby 1")},
		{Name: "standby-2", Dial: dead("standby 2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	w.dom.Fleet = pool

	_, err = w.dom.openSecure("203.0.113.10:7")
	if !errors.Is(err, ErrAllRemotesDown) {
		t.Errorf("err = %v, want ErrAllRemotesDown", err)
	}
}

func TestDeadCachedSessionRedials(t *testing.T) {
	w := newCoreWorld(t)
	w.run(t, func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return err
		}
		conn.Close()

		// The carrier dies underneath the proxy (remote restart, censor
		// reset) without anyone calling Rotate.
		w.dom.mu.Lock()
		sess := w.dom.sess
		w.dom.mu.Unlock()
		if sess == nil {
			return fmt.Errorf("no cached session after first request")
		}
		sess.Close()

		// The next request must notice the dead session and re-dial.
		conn2, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn2.Close()
		if err := connectThrough(conn2, "203.0.113.10:7"); err != nil {
			return fmt.Errorf("proxy stuck on dead cached session: %w", err)
		}
		msg := []byte("re-dialed")
		conn2.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn2, got); err != nil {
			return err
		}
		return nil
	})
	if st := w.dom.Stats(); st.Endpoint != "primary" {
		t.Errorf("endpoint = %q, want primary", st.Endpoint)
	}
}

func TestFleetDialPathThroughDomestic(t *testing.T) {
	w := newCoreWorld(t)
	// Second remote, same identity, on another host.
	standbyHost := w.n.AddHost("standby", "198.51.100.8", w.usZone, netsim.LinkConfig{Delay: 2 * time.Millisecond})
	id, err := w.ca.Issue("remote.scholarcloud.example", true)
	if err != nil {
		t.Fatal(err)
	}
	standby := &Remote{
		Env: w.env,
		DialHost: func(host string, port int) (net.Conn, error) {
			return standbyHost.DialTCP(fmt.Sprintf("%s:%d", host, port))
		},
		Secret:   []byte("tunnel-secret"),
		Identity: id,
	}
	sln, err := standbyHost.Listen("tcp", ":8443")
	if err != nil {
		t.Fatal(err)
	}
	w.n.Scheduler().Go(func() { standby.Serve(sln) })

	pool, err := fleet.New(fleet.Config{
		Env:           w.env,
		NewSession:    w.dom.WrapCarrier,
		ProbeInterval: 500 * time.Millisecond,
		Seed:          7,
	}, []fleet.Endpoint{
		{Name: "198.51.100.7:8443", Dial: func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.7:8443") }},
		{Name: "198.51.100.8:8443", Dial: func() (net.Conn, error) { return w.domestic.DialTCP("198.51.100.8:8443") }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	w.dom.Fleet = pool

	visit := func() error {
		conn, err := w.client.DialTCP("101.6.6.6:8118")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := connectThrough(conn, "203.0.113.10:7"); err != nil {
			return err
		}
		msg := []byte("via the fleet")
		conn.Write(msg)
		got := make([]byte, len(msg))
		_, err = io.ReadFull(conn, got)
		return err
	}
	w.run(t, func() error {
		w.env.Clock.Sleep(time.Second) // let the pool warm
		for i := 0; i < 6; i++ {
			if err := visit(); err != nil {
				return err
			}
		}
		// Takedown of one remote: requests keep flowing through the other.
		w.remote.Close()
		pool.MarkDown("198.51.100.7:8443", "takedown")
		for i := 0; i < 6; i++ {
			if err := visit(); err != nil {
				return fmt.Errorf("visit %d after takedown: %w", i, err)
			}
		}
		return nil
	})
	if st := w.dom.Stats(); st.Endpoint != "fleet" {
		t.Errorf("endpoint = %q, want fleet", st.Endpoint)
	}
	if standby.Stats().StreamsOpened < 6 {
		t.Errorf("standby served %d streams, want >= 6", standby.Stats().StreamsOpened)
	}
	if pool.Stats().Rotations != 1 {
		t.Errorf("rotations = %d, want 1", pool.Stats().Rotations)
	}
}
