package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// wireMain is the bench run as its own child: an http.Server whose handler
// reads the request and answers every route with a canned placement, having
// decided nothing. What a client measures against it is the transport
// layer's share of a call: kernel TCP over loopback, Go's HTTP/1.1 client
// and server, and the wake-ups of two processes. It takes tracond's -addr
// and -portfile so the same start-up code launches both.
func wireMain(args []string) int {
	fs := flag.NewFlagSet("bench wire", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	portfile := fs.String("portfile", "", "write the listen address here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	const one = `{"id":"t-1","app":"blastn","status":"placed","machine":3,"slot":1,"neighbour":"video","predicted_runtime_s":123.456789,"predicted_iops":456.789012,"generation":1,"request_id":"0123456789abcdef-42"}`
	batch := `{"results":[` + strings.Repeat(`{"placement":`+one+`},`, batchSize-1) + `{"placement":` + one + `}],"placed":8,"queued":0,"rejected":0,"failed":0}`
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a short read only means the client went away
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(requestIDHeader, "0123456789abcdef-42")
		if strings.HasSuffix(r.URL.Path, ":batch") {
			_, _ = io.WriteString(w, batch+"\n")
			return
		}
		_, _ = io.WriteString(w, one+"\n")
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench wire: %v\n", err)
		return 1
	}
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench wire: %v\n", err)
			return 1
		}
	}
	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "bench wire: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	_ = srv.Close()
	<-errc
	return 0
}
