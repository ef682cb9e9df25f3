package scenario_test

import (
	"fmt"
	"time"

	"routeconv/internal/scenario"
	"routeconv/internal/topology"
)

// ExampleParse shows the compact text grammar: statements separated by ";"
// (or newlines), each ending in its firing time. Parsing sorts by time and
// renders durations in Go's canonical form.
func ExampleParse() {
	script, err := scenario.Parse(
		"loss link 1-2 p=0.01 @410s; fail link 3-7 @400s")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(script)
	// Output: fail link 3-7 @6m40s; loss link 1-2 p=0.01 @6m50s
}

// ExampleScript_Validate rejects scripts that reference links the topology
// does not have, naming the event.
func ExampleScript_Validate() {
	g := topology.Torus(4, 4)
	script, err := scenario.Parse("fail link 0-9 @400s")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(script.Validate(800*time.Second, g))
	// Output: scenario: event 0 (fail link 0-9 @6m40s): no link 0-9 in the topology
}
