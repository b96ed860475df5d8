package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/experiments"
)

// goldenRequests are the bodies the byte-identity golden pins: the
// fredbench fredd-mixed hot keys (every system × the four allreduce
// payloads, seed 0) and one Fred-D training study per model.
func goldenRequests() []StudyRequest {
	var reqs []StudyRequest
	for _, sys := range experiments.Systems() {
		for _, size := range []float64{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
			reqs = append(reqs, StudyRequest{Kind: KindAllReduce, System: string(sys), Bytes: size})
		}
	}
	for _, model := range []string{"resnet152", "t17b", "gpt3", "t1t"} {
		reqs = append(reqs, StudyRequest{Kind: KindTraining, System: string(experiments.FredD), Workload: model})
	}
	return reqs
}

// goldenLabel names a golden request in the pin file.
func goldenLabel(r *StudyRequest) string {
	if r.Kind == KindTraining {
		return fmt.Sprintf("%s %s %s", r.Kind, r.System, r.Workload)
	}
	return fmt.Sprintf("%s %s %.0f", r.Kind, r.System, r.Bytes)
}

// TestStudyBodiesGolden: every golden study encodes to the bytes whose
// SHA-256 sums testdata/bodies.sha256 pins, and every body is exactly
// sized (cap == len): the result cache holds up to thousands of them,
// so slack capacity would be resident memory.
func TestStudyBodiesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 24 studies")
	}
	pin, err := os.ReadFile(filepath.Join("testdata", "bodies.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(pin)), "\n") {
		sum, label, _ := strings.Cut(line, "  ")
		want[label] = sum
	}
	reqs := goldenRequests()
	if len(want) != len(reqs) {
		t.Fatalf("pin file has %d bodies, want %d", len(want), len(reqs))
	}
	for i := range reqs {
		req := &reqs[i]
		label := goldenLabel(req)
		if err := req.Normalize(false); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := runStudy(context.Background(), req, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		body, err := res.Encode()
		if err != nil {
			t.Fatalf("%s: encoding: %v", label, err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want[label] {
			t.Errorf("%s: body hashes to %s, want %s", label, got, want[label])
		}
		if cap(body) != len(body) {
			t.Errorf("%s: body cap %d, len %d: want an exact-size body", label, cap(body), len(body))
		}
	}
}

// BenchmarkStudyResultEncode encodes the body of a cold 1 MiB Fred-D
// allreduce study, the commonest fredd answer: the study result plus
// its embedded metrics artifact.
func BenchmarkStudyResultEncode(b *testing.B) {
	req := &StudyRequest{Kind: KindAllReduce}
	if err := req.Normalize(false); err != nil {
		b.Fatal(err)
	}
	res, err := runStudy(context.Background(), req, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := res.Encode()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = body
	}
}

var benchSink []byte
