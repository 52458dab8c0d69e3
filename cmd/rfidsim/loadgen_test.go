package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/server"
)

// TestLoadgenStepsPastFinishedSession drives sessions whose step budget is
// far above what reading 10 tags takes. The churn tags must be admitted as
// soon as a session reports done, so no session is stepped past its end
// until the slot budget runs out.
func TestLoadgenStepsPastFinishedSession(t *testing.T) {
	s, err := server.New(server.Config{Dir: t.TempDir(), NoSync: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	cfg := loadgenConfig{
		base:     ts.URL,
		sessions: 2,
		steps:    30000,
		protocol: "FCAT-2",
		tags:     10,
		seed:     1,
		workers:  2,
	}
	if err := runLoadgen(cfg); err != nil {
		t.Fatalf("drive: %v", err)
	}
	cfg.verify = true
	if err := runLoadgen(cfg); err != nil {
		t.Fatalf("verify: %v", err)
	}
}
