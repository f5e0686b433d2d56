import dataclasses

import numpy as np

from motionbands.config import Config
from motionbands.isochron import MINUTES_PER_DAY, minute_of_day
from motionbands.motion import extract_motion
from motionbands.pipeline import CameraPipeline
from motionbands.sim import gen_blob_frames


def test_blob_pixels_flow_through_pipeline_into_store():
    # A blob crossing the frame over two seconds that straddle the
    # boundary between minutes 9 and 10.
    start_ms = 10 * 60_000 - 1_000
    frames = [
        dataclasses.replace(f, timestamp_ms=start_ms + f.timestamp_ms)
        for f in gen_blob_frames(96, 64, 60, radius=8.0, speed_px=1.0)
    ]
    config = Config()
    block, floor = config.motion.block_size, config.motion.noise_floor
    pipe = None
    minutes = set()
    crossed = 0
    for prev, curr in zip(frames, frames[1:]):
        motion = extract_motion(prev, curr, block, floor)
        if pipe is None:
            pipe = CameraPipeline("cam0", motion.grid_w, motion.grid_h, config)
        result = pipe.ingest(motion)
        minutes.add(minute_of_day(curr.timestamp_ms))

        assert np.isfinite(result.activity)
        for band in (result.bands.m_l1, result.bands.m_s1, result.bands.m_s2):
            assert np.all(np.isfinite(band.density)) and np.all(np.isfinite(band.dir_hist))
        # The noise-free band is non-zero exactly on the blocks the blob crossed.
        moved = motion.density > 0
        crossed += int(moved.sum())
        assert np.all(result.bands.m_l1.density[moved] > 0)
        assert np.all(result.bands.m_l1.density[~moved] == 0)

    assert crossed > 0
    assert minutes == {9, 10}
    pipe.finish()
    days = [pipe.store.query(m)[2] for m in range(MINUTES_PER_DAY)]
    assert [m for m, d in enumerate(days) if d] == [9, 10]
    assert days[9] == days[10] == 1
