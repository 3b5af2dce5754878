package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doJSON(t *testing.T, h http.Handler, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w
}

func TestHTTPAssign(t *testing.T) {
	s := testService(t, 31, 0)
	h := s.Handler()
	ep := s.Current()

	var reply assignReply
	if w := doJSON(t, h, "GET", "/assign?v=5", "", &reply); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if reply.Vertex != 5 || reply.Bucket != ep.Assignment[5] || reply.Epoch != ep.ID {
		t.Fatalf("reply %+v does not match snapshot", reply)
	}
	if w := doJSON(t, h, "GET", "/assign?v=notanumber", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage vertex: status %d", w.Code)
	}
	if w := doJSON(t, h, "GET", "/assign?v=99999999", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("out-of-snapshot vertex: status %d", w.Code)
	}
}

func TestHTTPEpochAndStats(t *testing.T) {
	s := testService(t, 32, 0)
	h := s.Handler()

	var ep epochReply
	doJSON(t, h, "GET", "/epoch", "", &ep)
	cur := s.Current()
	if ep.ID != cur.ID || ep.Records != len(cur.Assignment) || ep.Checksum != cur.Checksum {
		t.Fatalf("epoch reply %+v does not match Current()", ep)
	}
	doJSON(t, h, "GET", "/assign?v=0", "", nil)
	var st Stats
	doJSON(t, h, "GET", "/stats", "", &st)
	if st.Lookups == 0 || st.Swaps != 1 {
		t.Fatalf("stats %+v after one lookup and one swap", st)
	}
}

func TestHTTPRepartition(t *testing.T) {
	s := testService(t, 33, 0)
	h := s.Handler()
	var ep epochReply
	if w := doJSON(t, h, "POST", "/repartition", "", &ep); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ep.ID != 1 {
		t.Fatalf("repartition published epoch %d, want 1", ep.ID)
	}
	if s.Current().ID != 1 {
		t.Fatal("swap not visible to lookups")
	}
}

func TestHTTPDelta(t *testing.T) {
	s := testService(t, 34, 0)
	h := s.Handler()

	// One batch adding a hyperedge over existing data vertices. The change
	// is invisible until a repartition.
	trace := "addq 1 0 1 2\ncommit\n"
	var reply struct {
		Applied int    `json:"applied"`
		Epoch   uint64 `json:"epoch"`
	}
	if w := doJSON(t, h, "POST", "/delta", trace, &reply); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if reply.Applied != 1 || reply.Epoch != 0 {
		t.Fatalf("reply %+v, want 1 batch applied and epoch still 0", reply)
	}

	// Same again with an immediate repartition: the epoch advances.
	if w := doJSON(t, h, "POST", "/delta?repartition=1", trace, &reply); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if reply.Epoch != 1 {
		t.Fatalf("delta+repartition left epoch at %d", reply.Epoch)
	}

	if w := doJSON(t, h, "POST", "/delta", "addq not a trace\n", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed trace: status %d", w.Code)
	}
}

// TestHTTPDeltaBodyCap pins the POST /delta body cap: an oversized body is
// rejected with 413 and leaves the graph and the published epoch exactly as
// they were, while a body within the cap still applies.
func TestHTTPDeltaBodyCap(t *testing.T) {
	s := testService(t, 35, 0)
	const limit = 256
	s.maxDeltaBytes = limit
	h := s.Handler()
	before := s.Current()
	nq := s.session.Graph().NumQueries()

	// A well-formed trace whose every batch would apply, just too long. The
	// cap cuts it mid-line, which must still read as "too large".
	var big strings.Builder
	for big.Len() <= limit {
		big.WriteString("addq 1 0 1 2\ncommit\n")
	}
	w := doJSON(t, h, "POST", "/delta?repartition=1", big.String(), nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", w.Code, w.Body.String())
	}
	if got := s.Current(); got != before {
		t.Fatalf("oversized body published epoch %d", got.ID)
	}
	if got := s.session.Graph().NumQueries(); got != nq {
		t.Fatalf("oversized body changed the graph: %d -> %d queries", nq, got)
	}
	// Nothing was left pending either: the next epoch sees the old graph.
	if _, err := s.Repartition(); err != nil {
		t.Fatal(err)
	}
	if got := s.session.Graph().NumQueries(); got != nq {
		t.Fatalf("graph grew after a rejected body: %d -> %d queries", nq, got)
	}

	if w := doJSON(t, h, "POST", "/delta", "addq 1 0 1 2\ncommit\n", nil); w.Code != http.StatusOK {
		t.Fatalf("body within the cap: status %d: %s", w.Code, w.Body.String())
	}
	if got := s.session.Graph().NumQueries(); got != nq+1 {
		t.Fatalf("body within the cap: %d queries, want %d", got, nq+1)
	}
}
