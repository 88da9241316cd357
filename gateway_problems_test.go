package lclgrid

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestGatewayDefineProblem pins the fleet-level DSL contract: POST
// /v1/problems broadcasts the registration to every shard (registry
// state is process-local, so all shards must learn the definition), GET
// /v1/problems/{key} proxies the definition back, and both user-key and
// inline-definition solves route through the gateway.
func TestGatewayDefineProblem(t *testing.T) {
	shardA, _ := startServer(t, NewServer(NewEngine()))
	shardB, _ := startServer(t, NewServer(NewEngine()))
	gw, err := NewGateway([]string{shardA, shardB})
	if err != nil {
		t.Fatal(err)
	}
	gwBase := startGateway(t, gw)
	doc := threeColJSON(t)

	resp, body := postJSON(t, gwBase+"/v1/problems", doc)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gateway POST: %d\n%s", resp.StatusCode, body)
	}
	var dr defineResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}

	// Broadcast: EVERY shard must know the key afterwards, because a
	// re-sharded or failed-over request may land anywhere.
	for _, shard := range []string{shardA, shardB} {
		resp, body := getBody(t, shard+"/v1/problems/"+dr.Key)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("shard %s does not know %s: %d\n%s", shard, dr.Key, resp.StatusCode, body)
		}
	}

	// Idempotent re-post through the gateway.
	resp, body = postJSON(t, gwBase+"/v1/problems", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway re-POST: %d\n%s", resp.StatusCode, body)
	}

	// Proxied read-back.
	resp, body = getBody(t, gwBase+"/v1/problems/"+dr.Key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway GET: %d\n%s", resp.StatusCode, body)
	}
	var pd problemDoc
	if err := json.Unmarshal(body, &pd); err != nil {
		t.Fatal(err)
	}
	if pd.Fingerprint != dr.Fingerprint || pd.Source != SourceUser {
		t.Errorf("gateway problem doc: %+v", pd)
	}

	// A defective definition relays the shard's 400 verdict, not a 502.
	resp, body = postJSON(t, gwBase+"/v1/problems", `{"dims":2,"labels":["a"],"allow":[[["a","zzz"]],[]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad define through gateway: %d\n%s", resp.StatusCode, body)
	}

	// Solve by user key and by inline definition through the gateway;
	// both must label identically (deterministic solvers, same ids).
	resp, byKey := postJSON(t, gwBase+"/v1/solve", fmt.Sprintf(`{"key":%q,"n":12,"seed":3}`, dr.Key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway solve by key: %d\n%s", resp.StatusCode, byKey)
	}
	resp, byDef := postJSON(t, gwBase+"/v1/solve", fmt.Sprintf(`{"problem_def":%s,"n":12,"seed":3}`, doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway solve by inline def: %d\n%s", resp.StatusCode, byDef)
	}
	var rKey, rDef Result
	if err := json.Unmarshal(byKey, &rKey); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(byDef, &rDef); err != nil {
		t.Fatal(err)
	}
	if len(rKey.Labels) == 0 || len(rKey.Labels) != len(rDef.Labels) {
		t.Fatalf("label shapes differ: %d vs %d", len(rKey.Labels), len(rDef.Labels))
	}
	for i := range rKey.Labels {
		if rKey.Labels[i] != rDef.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}

// TestGatewayInlineDefRoutesByFingerprint: an inline problem_def
// document routes by its compiled fingerprint — the same placement as
// the registered user key, never the single-shard fallback that an
// unroutable document gets.
func TestGatewayInlineDefRoutesByFingerprint(t *testing.T) {
	gw, err := NewGateway([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"})
	if err != nil {
		t.Fatal(err)
	}
	def := threeColDef()
	fp, err := def.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(def)
	if err != nil {
		t.Fatal(err)
	}
	var doc keyDoc
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"problem_def":%s,"n":12}`, data)), &doc); err != nil {
		t.Fatal(err)
	}
	if got := gw.docRoutingKey(doc); got != fp {
		t.Errorf("inline def routes by %q, want its fingerprint %s", got, fp)
	}

	// After the define broadcast the gateway has memoized key → fp, so
	// the registered key routes to the same ring position as the inline
	// form of the same problem.
	gw.learnBinding([]byte(fmt.Sprintf(`{"key":%q,"fingerprint":%q}`, userKey(fp), fp)))
	if got := gw.docRoutingKey(keyDoc{Key: userKey(fp)}); got != fp {
		t.Errorf("user key routes by %q, want the memoized fingerprint %s", got, fp)
	}

	// A keyless, defless document has no route (single-shard fallback).
	if got := gw.docRoutingKey(keyDoc{}); got != "" {
		t.Errorf("unroutable doc got route %q", got)
	}
}

// TestGatewayGetsTryLastUnhealthyShard: the GET proxies follow the
// routed POSTs' health rule — a known-unhealthy shard is skipped only
// while an alternative remains — so a single-shard fleet whose shard is
// marked unhealthy still serves both problem reads instead of a 502
// until the next probe.
func TestGatewayGetsTryLastUnhealthyShard(t *testing.T) {
	shard, _ := startServer(t, NewServer(NewEngine()))
	gw, err := NewGateway([]string{shard}, WithGatewayProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Mounted directly: no background prober to restore the health.
	ts := httptest.NewServer(gw)
	defer ts.Close()
	for _, path := range []string{"/v1/problems", "/v1/problems/5col"} {
		gw.setHealth(shard, false, "marked down by the test")
		resp, body := getBody(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with its only shard marked unhealthy: %d\n%s", path, resp.StatusCode, body)
		}
	}
}
