// Command app is the fixture's main.
package main

import (
	"errors"
	"flag"
	"fmt"

	"fix/lib"
)

func main() {
	var level lib.Level
	flag.Var(&level, "level", "verbosity")
	flag.Parse()
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.Name("x"), errors.Is(lib.Failure{}, nil))
}
