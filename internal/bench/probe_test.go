package bench

import (
	"fmt"
	"testing"

	"rubin/internal/model"
	"rubin/internal/transport"
)

func TestProbe(t *testing.T) {
	p := model.Default()
	for _, kb := range []int{1, 2, 8, 16, 32, 64, 100} {
		cfg := EchoConfig{Payload: kb << 10, Messages: 300, Warmup: 30, Window: 3, Seed: 1}
		var line string
		line = fmt.Sprintf("%3dKB", kb)
		for _, st := range []struct {
			name string
			echo func(EchoConfig, model.Params) (EchoResult, error)
		}{{"tcp", echoTCP}, {"sr", echoSendRecv}, {"rw", echoOneSided}, {"ch", echoChannel}} {
			res, err := st.echo(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			line += fmt.Sprintf("  %s=%7.1fus/%6.0frps", st.name, res.MeanRT.Micros(), res.Throughput)
		}
		fmt.Println(line)
	}
	for _, kb := range []int{1, 20, 100} {
		c4 := quickFig4(kb << 10)
		r, err := RunFig4(transport.KindRDMA, c4, p)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := RunFig4(transport.KindTCP, c4, p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("fig4 %3dKB rubin=%8.1fus/%7.0frps tcp=%8.1fus/%7.0frps  lat%+5.0f%% tput%+5.0f%%\n",
			kb, r.MeanRT.Micros(), r.Throughput, tc.MeanRT.Micros(), tc.Throughput,
			100*(float64(r.MeanRT)/float64(tc.MeanRT)-1), 100*(r.Throughput/tc.Throughput-1))
	}
}
