package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scholarcloud/internal/blinding"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/metrics"
	"scholarcloud/internal/mux"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/obs"
	"scholarcloud/internal/pac"
	"scholarcloud/internal/tlssim"
)

// ErrAllRemotesDown reports that no remote proxy — primary or fleet
// endpoint — could carry a stream.
var ErrAllRemotesDown = errors.New("core: all remote proxies are down")

// Domestic is the proxy inside the censored network: the single endpoint
// users' browsers talk to. It serves the PAC file, enforces the visible
// whitelist, and forwards whitelisted traffic through the blinded tunnel
// to the remote proxy.
type Domestic struct {
	Env netx.Env
	// DialRemote opens a raw connection to the remote proxy across the
	// border.
	DialRemote func() (net.Conn, error)
	// Fleet, if set, replaces the single cached tunnel with a managed pool
	// of remote endpoints (see internal/fleet). DialRemote is ignored for
	// tunnel traffic when Fleet is non-nil. Standby/fallback deployments
	// are expressed as a fleet whose extra endpoints are the standbys.
	Fleet *fleet.Pool
	// Secret and Epoch must match the remote proxy's blinding
	// configuration.
	Secret []byte
	Epoch  uint64
	// Whitelist is the PAC policy: whitelisted domains go through the
	// tunnel, everything else is refused (the browser's PAC sends
	// non-whitelisted traffic DIRECT, so refusal only guards misuse).
	Whitelist *pac.Config
	// VerifyRemote authenticates the remote proxy's per-stream channel
	// certificate for plain-HTTP forwarding.
	VerifyRemote func(der []byte, name string) error
	// RemoteName is the expected certificate name of the remote.
	RemoteName string
	// SchemeOverride, if set, replaces epoch-derived blinding.
	SchemeOverride blinding.Scheme
	// Cache, if set, is the shared content cache serving whitelisted GET
	// responses locally: hits never cross the border link, and the proxy
	// switches to HTTPS-gateway mode (absolute-URI requests instead of
	// opaque CONNECT tunnels) so cacheable HTTPS traffic is visible to it.
	Cache *cache.Cache
	// Resil, if set, enables the client-path resilience layer (deadlines,
	// reconnect backoff, hedged retry — see Resilience). Nil keeps the
	// historical fail-fast behaviour.
	Resil *Resilience
	// GatewayFetch forces the proxy to answer gateway-mode absolute-URI
	// requests through its own upstream fetch even without a Cache or a
	// Resil policy. Fault experiments set it on the resilience-off
	// baseline so both arms of the comparison share one fetch path.
	GatewayFetch bool
	// NextTransport, if set alongside a Fleet with transport-labeled
	// endpoints, names the escalation rung a hedged retry should aim at
	// (carrier.Ladder.NextName is the production hook). A hedge fired
	// because the active transport stalls is then issued on the next rung
	// instead of racing a second carrier of the same, possibly-blocked,
	// transport. Empty or nil keeps hedges transport-agnostic.
	NextTransport func() string
	// ResumeChannels lets a plain-HTTP stream's encrypted channel resume
	// the tlssim session of an earlier channel on the same carrier (the
	// abbreviated handshake: one round trip, no X25519 exchange) instead
	// of running a full handshake per stream. Sessions are kept per
	// carrier and die with it. The client's offer decides: a Remote
	// resumes whenever it is offered a session it issued on that carrier.
	ResumeChannels bool

	mu        sync.Mutex
	sess      *mux.Session
	endpoint  string
	dialing   bool      // a goroutine is establishing the session
	dialCond  netx.Cond // wakes session() callers parked behind dialing
	dialFails int       // consecutive single-remote dial failures
	nextDial  time.Time // reconnect backoff gate (zero = none)
	// channels holds each carrier's channel-session cache (ResumeChannels).
	channels map[*mux.Session]*tlssim.SessionCache

	requests metrics.Counter
	refused  metrics.Counter
	streams  metrics.Counter

	// Plain-HTTP channel handshakes, full and abbreviated.
	chanFull    metrics.Counter
	chanResumed metrics.Counter

	// Resilience counters (zero unless Resil is set).
	hedges       metrics.Counter
	retries      metrics.Counter
	deadlineHits metrics.Counter
	failovers    metrics.Counter
	jitterCtr    atomic.Uint64 // backoff jitter draw sequence

	flowTrace   atomic.Pointer[obs.Trace]
	muxCounters atomic.Pointer[mux.Counters]
}

// DomesticStats counts proxy activity.
type DomesticStats struct {
	Requests int64
	Refused  int64
	// Endpoint labels the carrier the current tunnel was dialed through:
	// "primary" or "fleet".
	Endpoint string
	// Streams counts tunnel streams opened on the user's behalf.
	Streams int64
}

// Stats returns a snapshot of the domestic proxy's counters.
func (d *Domestic) Stats() DomesticStats {
	d.mu.Lock()
	endpoint := d.endpoint
	d.mu.Unlock()
	return DomesticStats{
		Requests: d.requests.Value(),
		Refused:  d.refused.Value(),
		Endpoint: endpoint,
		Streams:  d.streams.Value(),
	}
}

// Instrument publishes the proxy's request/refusal/stream counters and
// its carriers' mux frame counters on reg. Call before serving traffic.
func (d *Domestic) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("core.domestic.requests", &d.requests)
	reg.RegisterCounter("core.domestic.refused", &d.refused)
	reg.RegisterCounter("core.domestic.streams", &d.streams)
	reg.RegisterCounter("core.domestic.channel_full", &d.chanFull)
	reg.RegisterCounter("core.domestic.channel_resumed", &d.chanResumed)
	reg.RegisterCounter("core.domestic.hedges", &d.hedges)
	reg.RegisterCounter("core.domestic.retries", &d.retries)
	reg.RegisterCounter("core.domestic.deadline_hits", &d.deadlineHits)
	reg.RegisterCounter("core.domestic.failovers", &d.failovers)
	d.muxCounters.Store(&mux.Counters{
		FramesIn:   reg.Counter("mux.domestic.frames_in"),
		FramesOut:  reg.Counter("mux.domestic.frames_out"),
		Keepalives: reg.Counter("mux.domestic.keepalives"),
	})
	if d.Cache != nil {
		d.Cache.Instrument(reg)
	}
}

// SetTrace installs (or, with nil, removes) a flow tracer receiving a
// span for every tunnel stream opened or refused by this proxy.
func (d *Domestic) SetTrace(t *obs.Trace) { d.flowTrace.Store(t) }

// Rotate switches the blinding epoch: the current tunnel is torn down
// and the next stream re-dials with the new scheme. The remote proxy must
// be rotated to the same epoch (the operator controls both ends, §3).
func (d *Domestic) Rotate(epoch uint64) {
	d.mu.Lock()
	d.Epoch = epoch
	if d.sess != nil {
		d.sess.Close()
		d.sess = nil
	}
	pool := d.Fleet
	d.mu.Unlock()
	if pool != nil {
		// Old-epoch carriers cannot outlive their scheme: recycle the
		// fleet's pre-dialed sessions so they re-wrap under the new one.
		pool.Recycle()
	}
}

// WrapCarrier wraps a raw carrier connection in the current epoch's
// blinded mux session — the fleet.Config.NewSession hook for pools that
// tunnel on this proxy's behalf.
func (d *Domestic) WrapCarrier(raw net.Conn) *mux.Session {
	d.mu.Lock()
	scheme := d.SchemeOverride
	epoch := d.Epoch
	d.mu.Unlock()
	if scheme == nil {
		scheme = blinding.SchemeForEpoch(d.Secret, epoch)
	}
	sess := mux.NewSession(blinding.WrapConn(raw, scheme), d.Env, nil)
	sess.SetCounters(d.muxCounters.Load())
	return sess
}

// session returns the live tunnel session, dialing a fresh blinded
// carrier if needed. Used on the single-remote path (Fleet nil);
// standby remotes are handled by configuring a fleet instead.
func (d *Domestic) session() (*mux.Session, error) {
	d.mu.Lock()
	if d.dialCond == nil {
		d.dialCond = d.Env.Sync.NewCond(&d.mu)
	}
	// The dial crosses the border, so it blocks in (virtual) time; d.mu
	// must not be held across it — a second request parking on the bare
	// mutex would stall the scheduler. Concurrent callers park on the
	// scheduler-aware cond instead and re-check once the dialer finishes.
	for d.dialing {
		d.dialCond.Wait()
	}
	if d.sess != nil && d.sess.Err() == nil {
		sess := d.sess
		d.mu.Unlock()
		return sess, nil
	}
	if d.Resil != nil {
		if now := d.Env.Clock.Now(); now.Before(d.nextDial) {
			wait := d.nextDial.Sub(now)
			d.mu.Unlock()
			return nil, fmt.Errorf("%w: reconnect backing off for %v", ErrAllRemotesDown, wait)
		}
	}
	d.dialing = true
	d.mu.Unlock()

	var raw net.Conn
	var err error
	if d.Resil != nil {
		raw, err = d.dialRemoteBounded(d.Resil.withDefaults().DialTimeout)
	} else {
		raw, err = d.DialRemote()
	}

	d.mu.Lock()
	defer func() {
		d.dialing = false
		d.dialCond.Broadcast()
		d.mu.Unlock()
	}()
	if err != nil {
		if d.Resil != nil {
			// Exponential reconnect backoff with deterministic jitter: the
			// next dial is gated rather than hammered, so a downed remote
			// costs one timed-out dial per backoff window, not per request.
			r := d.Resil.withDefaults()
			d.dialFails++
			d.nextDial = d.Env.Clock.Now().Add(d.backoff(r, d.dialFails-1))
		}
		return nil, fmt.Errorf("%w: %v", ErrAllRemotesDown, err)
	}
	d.dialFails = 0
	d.nextDial = time.Time{}
	scheme := d.SchemeOverride
	if scheme == nil {
		scheme = blinding.SchemeForEpoch(d.Secret, d.Epoch)
	}
	d.sess = mux.NewSession(blinding.WrapConn(raw, scheme), d.Env, nil)
	d.sess.SetCounters(d.muxCounters.Load())
	d.endpoint = "primary"
	return d.sess, nil
}

// openStreamVia opens a tunnel stream carrying meta, via the fleet pool
// when one is configured, else via the cached single session. A
// non-empty via restricts the fleet pick to endpoints on that escalation
// rung (the transport-aware hedge path); the single-session path has one
// carrier and ignores via.
func (d *Domestic) openStreamVia(via string, meta []byte) (net.Conn, error) {
	if pool := d.Fleet; pool != nil {
		var st net.Conn
		var err error
		if via != "" {
			st, err = pool.OpenOn(via, meta)
		} else {
			st, err = pool.Open(meta)
		}
		if err != nil {
			var down *fleet.DownError
			if errors.As(err, &down) {
				return nil, fmt.Errorf("%w: %v", ErrAllRemotesDown, down.Last)
			}
			return nil, err
		}
		d.mu.Lock()
		d.endpoint = "fleet"
		d.mu.Unlock()
		d.streams.Inc()
		d.flowTrace.Load().Addf("core", "stream-open", "%s via fleet", meta)
		return st, nil
	}
	sess, err := d.session()
	if err != nil {
		return nil, err
	}
	st, err := sess.Open(meta)
	if err != nil {
		return nil, err
	}
	d.streams.Inc()
	d.flowTrace.Load().Addf("core", "stream-open", "%s via primary", meta)
	return st, nil
}

// openSecure opens an HTTPS-passthrough stream to host:port.
func (d *Domestic) openSecure(target string) (net.Conn, error) {
	return d.openSecureVia("", target)
}

func (d *Domestic) openSecureVia(via, target string) (net.Conn, error) {
	return d.openStreamVia(via, []byte(metaSecure+target))
}

// openPlain opens a cleartext-HTTP stream to host:port, wrapped in the
// proxy-to-proxy encrypted channel.
func (d *Domestic) openPlain(target string) (net.Conn, error) {
	return d.openPlainVia("", target)
}

func (d *Domestic) openPlainVia(via, target string) (net.Conn, error) {
	tconn, err := d.openChannel(via, target)
	if errors.Is(err, tlssim.ErrResumption) {
		// The failed offer dropped the carrier's cached session, so the
		// retry runs a full handshake: resumption never costs an error.
		tconn, err = d.openChannel(via, target)
	}
	return tconn, err
}

// openChannel opens one plain stream and runs its channel handshake.
func (d *Domestic) openChannel(via, target string) (net.Conn, error) {
	st, err := d.openStreamVia(via, []byte(metaPlain+target))
	if err != nil {
		return nil, err
	}
	tconn := tlssim.Client(st, tlssim.Config{
		ServerName: d.RemoteName,
		VerifyPeer: d.VerifyRemote,
		Rand:       d.Env.Rand,
		Sessions:   d.channelSessions(st),
	})
	if err := tconn.Handshake(); err != nil {
		st.Close()
		return nil, err
	}
	if tconn.Resumed() {
		d.chanResumed.Inc()
	} else {
		d.chanFull.Inc()
	}
	return tconn, nil
}

// channelSessions returns the channel-session cache of the carrier st
// rides, or nil when resumption is off. Creating a carrier's cache
// prunes those of dead carriers.
func (d *Domestic) channelSessions(st net.Conn) *tlssim.SessionCache {
	if !d.ResumeChannels {
		return nil
	}
	carried, ok := st.(interface{ Session() *mux.Session })
	if !ok {
		return nil
	}
	sess := carried.Session()
	d.mu.Lock()
	defer d.mu.Unlock()
	sc := d.channels[sess]
	if sc == nil {
		for s := range d.channels {
			if s.Err() != nil {
				delete(d.channels, s)
			}
		}
		if d.channels == nil {
			d.channels = make(map[*mux.Session]*tlssim.SessionCache)
		}
		sc = tlssim.NewSessionCache(d.Env.Clock.Now)
		d.channels[sess] = sc
	}
	return sc
}

// authorize implements the whitelist check.
func (d *Domestic) authorize(host string) error {
	d.requests.Inc()
	if d.Whitelist.Match(host) {
		return nil
	}
	d.refused.Inc()
	d.flowTrace.Load().Addf("core", "refused", "%s not on whitelist", host)
	return fmt.Errorf("core: %s is not on the whitelist", host)
}

// Proxy returns the browser-facing forward proxy (CONNECT for HTTPS,
// absolute-URI for HTTP), enforcing the whitelist. With a Cache or a
// Resilience policy configured, absolute-URI requests (including
// gateway-mode HTTPS) are answered through the proxy's own upstream
// fetch, where both layers live.
func (d *Domestic) Proxy() *httpsim.Proxy {
	p := &httpsim.Proxy{
		Dial:      d.openSecure,
		DialPlain: d.openPlain,
		Spawn:     d.Env.Spawn,
		Authorize: d.authorize,
	}
	if d.Cache != nil || d.Resil != nil || d.GatewayFetch {
		p.RoundTrip = d.roundTrip
	}
	return p
}

// fetchOrigin performs one upstream request for u across the border
// tunnel: HTTPS targets get a passthrough stream plus a client TLS
// session terminated here (gateway mode), plain HTTP rides the
// proxy-to-proxy encrypted channel. extra headers (cache conditionals)
// are merged into a copy of the request's header map.
func (d *Domestic) fetchOrigin(u *httpsim.URL, req *httpsim.Request, extra map[string]string) (*httpsim.Response, error) {
	header := make(map[string]string, len(req.Header)+len(extra))
	for k, v := range req.Header {
		header[k] = v
	}
	for k, v := range extra {
		header[k] = v
	}
	if d.Resil != nil {
		return d.fetchResilient(u, req, header)
	}
	return d.fetchOriginOnce(u, req, header, time.Time{}, "")
}

// fetchOriginOnce performs a single upstream attempt. A non-zero deadline
// becomes the read deadline of the tunnel stream under the attempt, so a
// fetch stalled by a dead carrier or a partitioned border link surfaces
// as a timeout instead of hanging forever. A non-empty via pins the
// attempt's tunnel stream to that carrier transport.
func (d *Domestic) fetchOriginOnce(u *httpsim.URL, req *httpsim.Request, header map[string]string, deadline time.Time, via string) (*httpsim.Response, error) {
	var upstream net.Conn
	if u.Scheme == "https" {
		st, err := d.openSecureVia(via, u.HostPort())
		if err != nil {
			return nil, err
		}
		if !deadline.IsZero() {
			st.SetReadDeadline(deadline)
		}
		tconn := tlssim.Client(st, tlssim.Config{ServerName: u.Host, Rand: d.Env.Rand})
		if err := tconn.Handshake(); err != nil {
			st.Close()
			return nil, err
		}
		upstream = tconn
	} else {
		st, err := d.openPlainVia(via, u.HostPort())
		if err != nil {
			return nil, err
		}
		if !deadline.IsZero() {
			st.SetReadDeadline(deadline)
		}
		upstream = st
	}
	defer upstream.Close()

	originReq := &httpsim.Request{
		Method: req.Method,
		Target: u.Path,
		Host:   u.Host,
		Header: header,
		Body:   req.Body,
	}
	return httpsim.NewClientConn(upstream).RoundTrip(originReq)
}

// withoutCredentials returns a copy of req whose header carries no
// per-user credentials. Cache-populating fetches use it so nothing
// user-specific can enter the shared store, even from a mislabeled
// origin that marks a cookie-varying response cacheable.
func withoutCredentials(req *httpsim.Request) *httpsim.Request {
	header := make(map[string]string, len(req.Header))
	for k, v := range req.Header {
		if k == "Cookie" || k == "Authorization" {
			continue
		}
		header[k] = v
	}
	cp := *req
	cp.Header = header
	return &cp
}

// roundTrip is the proxy's absolute-URI fetch path when the cache is
// enabled. Only whitelisted GETs touch the cache — anything else (or any
// cache-internal bypass) still goes upstream, so correctness never
// depends on cacheability. Population fetches are credential-free; when
// the cache stands aside on a per-user key (Uncacheable), or a
// cookie-bearing request's population fetch turned out non-cacheable
// (Bypass), the user gets their own upstream fetch with their own
// credentials — per-user first-visit semantics never ride the cache.
func (d *Domestic) roundTrip(u *httpsim.URL, req *httpsim.Request) (*httpsim.Response, error) {
	if req.Header[SiblingHeader] != "" {
		return d.siblingRoundTrip(u, req)
	}
	if d.Cache == nil || req.Method != "GET" || !d.Whitelist.Match(u.Host) {
		return d.fetchOrigin(u, req, nil)
	}
	key := u.Scheme + "://" + u.HostPort() + u.Path
	resp, outcome, err := d.Cache.Fetch(key, func(cond map[string]string) (*httpsim.Response, error) {
		return d.fetchOrigin(u, withoutCredentials(req), cond)
	})
	if err != nil {
		return nil, err
	}
	if outcome == cache.Uncacheable || (outcome == cache.Bypass && req.Header["Cookie"] != "") {
		resp, err = d.fetchOrigin(u, req, nil)
		if err != nil {
			return nil, err
		}
	}
	d.flowTrace.Load().Addf("core", "cache", "%s %s", outcome, key)
	return resp, nil
}

// siblingRoundTrip answers a peer shard's cache-peering request: serve
// the key from the local cache via FetchLocal — never forwarding to
// another peer, so a rehash race cannot loop — populating on miss with a
// credential-free border fetch. When the cache stands aside (the key is
// known per-user), the peer still gets a credential-free fetch: exactly
// what it would have pulled across the border itself, so admission at the
// requesting shard replays the same per-user decision.
func (d *Domestic) siblingRoundTrip(u *httpsim.URL, req *httpsim.Request) (*httpsim.Response, error) {
	popReq := withoutCredentials(req)
	delete(popReq.Header, SiblingHeader)
	if d.Cache == nil || req.Method != "GET" || !d.Whitelist.Match(u.Host) {
		return d.fetchOrigin(u, popReq, nil)
	}
	key := u.Scheme + "://" + u.HostPort() + u.Path
	resp, outcome, err := d.Cache.FetchLocal(key, func(cond map[string]string) (*httpsim.Response, error) {
		return d.fetchOrigin(u, popReq, cond)
	})
	if err != nil {
		return nil, err
	}
	if resp == nil {
		// Uncacheable: the cache stood aside. The peer asked for a
		// shareable copy; a plain credential-free fetch is the closest
		// thing that exists for a per-user key.
		resp, err = d.fetchOrigin(u, popReq, nil)
		if err != nil {
			return nil, err
		}
	}
	d.flowTrace.Load().Addf("core", "sibling", "%s %s", outcome, key)
	return resp, nil
}

// PACHandler serves the proxy auto-config file at /pac — the one browser
// setting a ScholarCloud user touches.
func (d *Domestic) PACHandler() httpsim.Handler {
	mux := httpsim.NewMux()
	mux.HandleFunc("/pac", func(_ *httpsim.Request, _ net.Addr) *httpsim.Response {
		resp := httpsim.NewResponse(200, []byte(d.Whitelist.JavaScript()))
		resp.Header["Content-Type"] = "application/x-ns-proxy-autoconfig"
		return resp
	})
	mux.HandleFunc("/whitelist", func(_ *httpsim.Request, _ net.Addr) *httpsim.Response {
		// The auditable whitelist (§3, service legalization).
		var body []byte
		for _, dm := range d.Whitelist.Domains() {
			body = append(body, dm...)
			body = append(body, '\n')
		}
		return httpsim.NewResponse(200, body)
	})
	return mux
}
