package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/rescache"
	"repro/internal/xag"
)

// Content addressing for requests. The cache key covers exactly what can
// change the result bytes: the canonical network structure
// (xag.CanonicalHash) and every result-affecting effective option. These
// options are deliberately excluded:
//
//   - workers: the engine's output is byte-identical across worker counts
//     (pinned since PR 2 and re-pinned by the golden suite), so parallelism
//     is an execution detail, not part of the result's identity;
//   - deadline: it decides whether a result is produced, never which one;
//   - incremental and sequential_commit: deprecated and ignored.
//
// Cost model and the remaining options are folded in normalized to their
// effective values (cut_size 0 → 6), so "defaults spelled out" and
// "defaults omitted" address the same entry. Flag bit 4 once recorded
// incremental; it is always set, so every key, and every persisted entry,
// keeps the value it had when the option was on.

// cacheKeyMagic domain-separates request keys from bare network hashes.
// Its last two bytes version the engine: they change whenever some request's
// result does, so a persisted cache stops serving the older results. 02:
// Minimize returns the input of a final round that made the cost worse.
var cacheKeyMagic = [8]byte{'M', 'C', 'R', 'E', 'Q', 'K', '0', '2'}

func cacheKey(net *xag.Network, o RequestOptions) rescache.Key {
	nh := net.CanonicalHash()
	h := sha256.New()
	h.Write(cacheKeyMagic[:])
	h.Write(nh[:])
	h.Write([]byte(o.Cost))
	var b [7]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(o.MaxRounds))
	cut := o.CutSize
	if cut == 0 {
		cut = 6
	}
	b[4] = byte(cut)
	var flags byte
	if o.Verify {
		flags |= 1
	}
	if o.ZeroGain {
		flags |= 2
	}
	flags |= 4 // formerly incremental, always on
	b[5] = flags
	b[6] = 0 // reserved
	h.Write(b[:])
	var k rescache.Key
	h.Sum(k[:0])
	return k
}

// buildResult freezes one finished optimization into the fully-rendered
// form the cache stores: report JSON, Bristol text, and the dense JSON gate
// list, plus the ints the text/plain headers need. Every response a hit can
// produce is rendered here, once, from the live network — hits never
// re-encode anything, which is what makes them byte-identical to the cold
// response by construction.
func buildResult(rep Report, net *xag.Network) (*rescache.Result, error) {
	repJSON, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	var bristol bytes.Buffer
	if err := net.WriteBristol(&bristol); err != nil {
		return nil, fmt.Errorf("encoding bristol: %w", err)
	}
	netJSON, err := json.Marshal(EncodeNetworkJSON(net))
	if err != nil {
		return nil, fmt.Errorf("encoding network json: %w", err)
	}
	return &rescache.Result{
		Report:        repJSON,
		Bristol:       bristol.Bytes(),
		NetJSON:       netJSON,
		ANDBefore:     rep.ANDBefore,
		ANDAfter:      rep.ANDAfter,
		ANDDepthAfter: rep.ANDDepthAfter,
		Rounds:        rep.Rounds,
	}, nil
}

// renderJSONBody assembles the response body from a frozen result. Batch
// items and finished jobs embed exactly these bytes, so the item-by-item
// byte-identity guarantee holds across all three surfaces. The trailing
// newline matches json.Encoder framing.
func renderJSONBody(res *rescache.Result, wantNetJSON bool) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"report":`)
	buf.Write(res.Report)
	if wantNetJSON {
		buf.WriteString(`,"network":`)
		buf.Write(res.NetJSON)
	} else {
		buf.WriteString(`,"bristol":`)
		b, _ := json.Marshal(string(res.Bristol)) // a string never fails to marshal
		buf.Write(b)
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}

// writeOptimizeResponse writes the 200 response for one result, honoring
// the caller's Accept preference and tagging cache provenance.
func (s *Server) writeOptimizeResponse(w http.ResponseWriter, r *http.Request, res *rescache.Result, dr *decodedRequest, out rescache.Outcome) {
	w.Header().Set("X-MC-Cache", out.String())
	if dr.deprecated {
		w.Header().Set("Deprecation", "true")
		s.deprecationOnce.Do(func() {
			s.logf("server: query-string options are deprecated; send a JSON envelope (see API.md)")
		})
	}
	s.met.requests.With("200").Inc()

	if accept := r.Header.Get("Accept"); len(accept) >= 10 && accept[:10] == "text/plain" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-MC-And-Before", strconv.Itoa(res.ANDBefore))
		w.Header().Set("X-MC-And-After", strconv.Itoa(res.ANDAfter))
		w.Header().Set("X-MC-And-Depth-After", strconv.Itoa(res.ANDDepthAfter))
		w.Header().Set("X-MC-Rounds", strconv.Itoa(res.Rounds))
		if _, err := w.Write(res.Bristol); err != nil {
			s.logf("server: writing bristol response: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(renderJSONBody(res, dr.wantNetJSON)); err != nil {
		s.logf("server: writing response: %v", err)
	}
}
