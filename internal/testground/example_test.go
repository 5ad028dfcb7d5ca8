package testground_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/testground"
)

// ExampleRunExec is `tinyleo-testground -plan plans/smoke.json` as a
// program. With no Output comment, go test compiles it but never runs it.
func ExampleRunExec() {
	plan, err := testground.Load("plans/smoke.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll("run-smoke", 0o755); err != nil {
		log.Fatal(err)
	}
	rep, err := testground.RunExec(plan, testground.ExecConfig{
		CtlBin: "bin/tinyleo-ctl", SatBin: "bin/tinyleo-sat", Dir: "run-smoke",
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rep.WriteFile("run-smoke"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("passed=%v breached=%d/%d\n",
		rep.Passed, rep.SLOBreached, len(rep.SLO))
}
