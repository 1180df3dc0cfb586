package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"stanoise/internal/core"
	"stanoise/internal/sna"
	"stanoise/internal/tech"
)

// RequestError is the typed outcome of rejecting a request before any
// analysis runs: an HTTP status plus a stable machine-readable code. It is
// what POST /v1/analyze returns as the JSON error body for 4xx responses,
// so clients can branch on Code instead of parsing prose.
type RequestError struct {
	// Status is the HTTP status the server responds with (400, 413, 429).
	Status int `json:"-"`
	// Code is the stable error identifier: "bad_json", "bad_design",
	// "bad_method", "bad_policy", "bad_budget", "bad_corner",
	// "empty_design", "too_many_clusters", "body_too_large", "overloaded".
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("serve: %s: %s", e.Code, e.Message)
}

// badRequest builds a 400-class RequestError.
func badRequest(code, format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// analyzeRequest is the wire form of POST /v1/analyze. The design field
// embeds the same JSON schema snacheck -design consumes (and -sample
// emits); every other field overrides one server default for this request
// only. Unknown fields are rejected, so typos fail loudly instead of
// silently running with defaults.
type analyzeRequest struct {
	// Design is the embedded design document (the snacheck JSON schema).
	Design json.RawMessage `json:"design"`
	// Method selects the victim model: "macromodel" (default),
	// "superposition", "zolotov" or "golden".
	Method string `json:"method,omitempty"`
	// Policy selects the error policy: "fail-fast" (default) or "continue".
	Policy string `json:"policy,omitempty"`
	// Align toggles the worst-case alignment search; default true.
	Align *bool `json:"align,omitempty"`
	// DtPs is the engine timestep in picoseconds; default 2.
	DtPs float64 `json:"dt_ps,omitempty"`
	// DeadlineMs is this request's analysis budget in milliseconds; 0
	// selects the server default, and the server maximum always clamps it.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// MaxClusters is the client's own cluster budget: a design with more
	// clusters is rejected with 413 before any analysis. 0 means no
	// client-side budget (the server-side budget still applies).
	MaxClusters int `json:"max_clusters,omitempty"`
	// Deterministic omits run-varying fields (per-report timings) from the
	// streamed records, mirroring snacheck -deterministic.
	Deterministic bool `json:"deterministic,omitempty"`
	// Feasibility toggles the aggressor-correlation filter for this
	// request: switching windows and logic constraints in the design prune
	// unrealizable combinations and every report carries a
	// bounded-realistic margin next to the classic one. Default is the
	// server's configured setting (off unless the operator enables it).
	Feasibility *bool `json:"feasibility,omitempty"`
	// Corner names the operating corner this request analyses at — one of
	// the standard corner names (tt/ff/ss/fs/sf; see tech.CornerByName).
	// An unknown name is a "bad_corner" 400. Empty selects the server's
	// configured default corner (nominal unless the operator set one).
	Corner string `json:"corner,omitempty"`
	// NonlinearCaps toggles the NLMOS voltage-dependent gate-charge model
	// for this request (sna.Options.NonlinearCaps); default is the
	// server's configured setting.
	NonlinearCaps *bool `json:"nonlinear_caps,omitempty"`
}

// parsedRequest is a decoded, validated analyzeRequest, ready to run.
type parsedRequest struct {
	design *sna.Design
	// opts is the server's base options with this request's knobs applied.
	opts          sna.Options
	deadline      time.Duration
	deterministic bool
}

// finitePositive reports whether v is usable as a strictly positive
// budget: NaN, infinities, zero and negatives are all rejected. JSON
// cannot spell NaN or Inf directly, but out-of-range literals and hostile
// decoders make the explicit guard worth its one line.
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// decodeRequest parses and validates one analyze request body against the
// server budgets and overlays its knobs onto a copy of the server's base
// options, returning a typed RequestError (never a bare error) on any
// rejection. It never panics on malformed input — FuzzRequestDecode holds
// it to that.
func (s *Server) decodeRequest(r io.Reader) (*parsedRequest, *RequestError) {
	var req analyzeRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, &RequestError{
				Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit),
			}
		}
		return nil, badRequest("bad_json", "decoding request: %v", err)
	}
	// A second document after the first is a framing error, not extra data
	// to ignore.
	if dec.More() {
		return nil, badRequest("bad_json", "trailing data after request object")
	}
	if len(req.Design) == 0 {
		return nil, badRequest("empty_design", "request carries no design")
	}

	design, err := sna.ParseDesign(bytes.NewReader(req.Design))
	if err != nil {
		return nil, badRequest("bad_design", "%v", err)
	}
	p := &parsedRequest{design: design, opts: s.base, deadline: s.cfg.DefaultDeadline, deterministic: req.Deterministic}
	o := &p.opts
	if req.Method != "" {
		m, err := core.ParseMethod(req.Method)
		if err != nil {
			return nil, badRequest("bad_method", "%v", err)
		}
		o.Method = m
	}
	if req.Policy != "" {
		pol, err := sna.ParseErrorPolicy(req.Policy)
		if err != nil {
			return nil, badRequest("bad_policy", "%v", err)
		}
		o.OnError = pol
	}
	// The bool knobs: an absent knob inherits the server's base option, a
	// present one overrides it for this request.
	for _, k := range []struct{ req, opt *bool }{
		{req.Align, &o.Align},
		{req.Feasibility, &o.Feasibility},
		{req.NonlinearCaps, &o.NonlinearCaps},
	} {
		if k.req != nil {
			*k.opt = *k.req
		}
	}
	if req.Corner != "" {
		c, err := tech.CornerByName(req.Corner)
		if err != nil {
			return nil, badRequest("bad_corner", "%v", err)
		}
		o.Corner = c
	}

	if req.DtPs != 0 {
		if !finitePositive(req.DtPs) {
			return nil, badRequest("bad_budget", "dt_ps must be a finite positive number, got %v", req.DtPs)
		}
		o.Dt = req.DtPs * 1e-12
	}
	if req.DeadlineMs != 0 {
		if !finitePositive(req.DeadlineMs) {
			return nil, badRequest("bad_budget", "deadline_ms must be a finite positive number, got %v", req.DeadlineMs)
		}
		p.deadline = time.Duration(req.DeadlineMs * float64(time.Millisecond))
	}
	if lim := s.cfg.MaxDeadline; lim > 0 && (p.deadline <= 0 || p.deadline > lim) {
		p.deadline = lim
	}

	if req.MaxClusters < 0 {
		return nil, badRequest("bad_budget", "max_clusters must be >= 0, got %d", req.MaxClusters)
	}
	budget := s.cfg.MaxClusters
	if req.MaxClusters > 0 && (budget == 0 || req.MaxClusters < budget) {
		budget = req.MaxClusters
	}
	if budget > 0 && len(design.Clusters) > budget {
		return nil, &RequestError{
			Status: http.StatusRequestEntityTooLarge, Code: "too_many_clusters",
			Message: fmt.Sprintf("design has %d clusters, budget is %d", len(design.Clusters), budget),
		}
	}
	return p, nil
}
