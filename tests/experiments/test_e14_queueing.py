"""E14: the analytic latency model against the discrete-event simulator.

The optimizer's M/G/1 tandem model is what every plan is ranked and priced
with; E14 checks its predicted mean latency against simulation.  At its
default horizon the two agree within a few percent below saturation.
"""

from repro.experiments import e14_queueing_validation


def test_model_tracks_simulation_below_saturation():
    result = e14_queueing_validation.run()
    errors = dict(zip(e14_queueing_validation.DEFAULT_RATES, result.extras["errors"]))
    for rate in (1.0, 2.0, 4.0, 6.0):
        assert abs(errors[rate]) <= 0.05, (rate, errors[rate])
