package tlssim

import (
	"sync"
	"time"
)

// Session resumption (the abbreviated handshake, RFC 5246 §7.3 in
// shape). After a full handshake the server returns a random session ID
// inside its encrypted Finished. A later client offers that ID after the
// SNI; a server that still holds it answers with a ServerHello carrying
// only its random, then its Finished, and the client replies with its
// own. Both Finished messages are checked, under keys derived from the
// stored secret and the two fresh randoms, so a resumed connection costs
// one round trip and no key exchange. An unknown, expired or mismatched
// ID gets the full handshake in the same exchange.
const (
	// SessionLifetime bounds how long a session stays resumable, counted
	// from the full handshake that created it. It is also the longest a
	// session secret outlives that handshake's ephemeral keys.
	SessionLifetime = 10 * time.Minute
	// sessionIDLen is the length of the IDs a server issues; an offered
	// ID field longer than this is malformed.
	sessionIDLen = 32
	// maxSessions bounds one cache's entries.
	maxSessions = 64
)

// SessionCache holds the resumable sessions of one side of a transport.
// A client keeps the latest session per server name; a server keeps the
// sessions it issued, by ID. A cache serves one side only. Scoping it
// (the split proxy keeps one per carrier) decides which connections can
// resume each other's sessions. It is safe for concurrent use.
type SessionCache struct {
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*session
}

// session is one resumable session.
type session struct {
	id      []byte
	master  []byte
	name    string // the server name the session was established under
	cert    []byte // client side: the certificate the server presented
	expires time.Time
}

// NewSessionCache returns an empty cache that reads the time from now
// (netx.Env.Clock.Now, so expiry follows the environment's clock).
func NewSessionCache(now func() time.Time) *SessionCache {
	return &SessionCache{now: now}
}

// get returns the live session under key, forgetting it once expired.
func (sc *SessionCache) get(key string) *session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s := sc.entries[key]
	if s != nil && !sc.now().Before(s.expires) {
		delete(sc.entries, key)
		return nil
	}
	return s
}

// put stores s under key, stamping its expiry. A full cache first drops
// its expired sessions and then, if none had expired, the oldest.
func (sc *SessionCache) put(key string, s *session) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	now := sc.now()
	s.expires = now.Add(SessionLifetime)
	if _, ok := sc.entries[key]; !ok && len(sc.entries) >= maxSessions {
		var oldest string
		found := false
		for k, e := range sc.entries {
			if !now.Before(e.expires) {
				delete(sc.entries, k)
			} else if !found || e.expires.Before(sc.entries[oldest].expires) {
				oldest, found = k, true
			}
		}
		if len(sc.entries) >= maxSessions {
			delete(sc.entries, oldest)
		}
	}
	if sc.entries == nil {
		sc.entries = make(map[string]*session)
	}
	sc.entries[key] = s
}

// drop forgets s if it is still the session stored under key.
func (sc *SessionCache) drop(key string, s *session) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.entries[key] == s {
		delete(sc.entries, key)
	}
}
