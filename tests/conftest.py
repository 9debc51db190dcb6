"""One Hypothesis profile for every property module; nothing to load without Hypothesis,
whose modules then skip themselves."""

try:
    from hypothesis import Phase, settings
except ImportError:
    pass
else:
    # Derandomized, so every run sees the same examples.  No shrinking: a failure reports
    # the example that found it at once, rather than re-running the oracle through minutes
    # of shrink steps.
    settings.register_profile("prballoc", derandomize=True, deadline=None, database=None,
                              phases=[Phase.explicit, Phase.generate])
    settings.load_profile("prballoc")
