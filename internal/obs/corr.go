package obs

import (
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/splitmix"
)

// CorrHeader is the HTTP header carrying a request's correlation ID.
// Serve echoes an inbound value (after sanitizing) or mints a fresh one,
// and always sets it on the response so clients can join their request
// to server-side traces, wide events, and logs.
const CorrHeader = "X-Rel-Correlation-Id"

// CorrSource mints correlation IDs from a seeded splitmix64 stream, so a
// fixed seed yields a reproducible ID sequence under test while distinct
// runtime seeds keep concurrent servers from colliding.
type CorrSource struct {
	mu sync.Mutex
	x  uint64
}

// NewCorrSource returns a source seeded with seed.
func NewCorrSource(seed uint64) *CorrSource {
	return &CorrSource{x: seed}
}

// Next returns the next correlation ID: 16 lowercase hex characters.
func (c *CorrSource) Next() string {
	c.mu.Lock()
	z := splitmix.Next(c.x)
	c.x += splitmix.Golden
	c.mu.Unlock()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], z)
	return hex.EncodeToString(b[:])
}

// SanitizeCorr validates a client-supplied correlation ID. It returns s
// unchanged when s is 1–64 characters drawn from [A-Za-z0-9_-], and ""
// otherwise — bad inputs are discarded, never escaped, so correlation
// IDs are always safe to embed in logs, JSON, and URLs verbatim.
func SanitizeCorr(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '_' || c == '-':
		default:
			return ""
		}
	}
	return s
}
