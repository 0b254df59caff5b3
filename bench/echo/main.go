// Command echo is the benchmark's speed reference: it sends every 32 bytes
// it receives straight back. It runs none of the repository's code, so what
// a round trip to it costs is the host's doing alone (see nsload's
// reference.go).
package main

import (
	"fmt"
	"io"
	"net"
	"os"
)

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "echo:", err)
		os.Exit(1)
	}
	fmt.Printf("echo serving on %s\n", ln.Addr())
	for {
		c, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, "echo:", err)
			os.Exit(1)
		}
		go func() {
			defer c.Close()
			buf := make([]byte, 32)
			for {
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
				if _, err := c.Write(buf); err != nil {
					return
				}
			}
		}()
	}
}
